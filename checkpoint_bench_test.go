package universal

// BenchmarkCheckpoint prices the daemon's checkpoint serialization: one
// iteration is a full atomic checkpoint of a loaded daemon — marshal
// the sketch under the state lock, write a temp file, fsync, rename.
// The durability loop runs this every -checkpoint-every interval, so a
// regression here taxes every running daemon, not just restarts.

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/daemon"
)

func BenchmarkCheckpoint(b *testing.B) {
	s := processBenchStream()
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: processBenchOpts(s)}
	srv, err := daemon.NewServer(spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.IngestBatch(s.Updates()); err != nil {
		b.Fatal(err)
	}
	path := daemon.CheckpointPath(b.TempDir())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.WriteCheckpoint(path); err != nil {
			b.Fatal(err)
		}
	}
}
