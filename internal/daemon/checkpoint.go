package daemon

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/wire"
)

// checkpointMagic stamps the gCKP checkpoint file: a wire header whose
// fingerprint is the daemon's Spec fingerprint, the window clock (0 for
// clockless kinds), the ingest counter, and the estimator snapshot as a
// length-framed blob. The Spec fingerprint in the header is what lets a
// restarting daemon refuse a checkpoint written under a different
// configuration before any sketch state is touched.
const checkpointMagic uint32 = 0x67434b50 // "gCKP"

// CheckpointName is the file a daemon keeps its checkpoint under inside
// its -state-dir.
const CheckpointName = "checkpoint.gsum"

// CheckpointPath returns the checkpoint file path inside stateDir.
func CheckpointPath(stateDir string) string {
	return filepath.Join(stateDir, CheckpointName)
}

// checkpointBytes serializes the daemon's durable state under the state
// lock: Spec fingerprint, window clock, ingest counter, and the wire
// snapshot of the estimator.
func (s *Server) checkpointBytes() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, err := s.est.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("daemon: checkpoint snapshot: %w", err)
	}
	var tick uint64
	if win, ok := s.est.(backend.Windowed); ok {
		tick = win.Now()
	}
	var w wire.Writer
	w.Header(checkpointMagic, s.fp)
	w.U64(tick)
	w.U64(s.ingests)
	w.Blob(snap)
	return w.Bytes(), nil
}

// WriteCheckpoint atomically persists the daemon's state to path: the
// bytes land in a temporary file in the same directory, are fsynced, and
// only then renamed over path, so a crash mid-write leaves the previous
// checkpoint intact and a reader never sees a torn file. The directory is
// fsynced after the rename, so a checkpoint that returned survives a
// crash right after it; a failure there counts as a failed write.
func (s *Server) WriteCheckpoint(path string) (err error) {
	start := time.Now()
	defer func() {
		s.obs.checkpointSeconds.Observe(time.Since(start).Seconds())
		if err != nil {
			s.obs.checkpointErr.Inc()
		} else {
			s.obs.checkpointOK.Inc()
		}
	}()
	data, err := s.checkpointBytes()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, CheckpointName+".tmp-*")
	if err != nil {
		return fmt.Errorf("daemon: checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("daemon: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("daemon: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("daemon: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("daemon: checkpoint rename: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("daemon: checkpoint directory sync: %w", err)
	}
	s.obs.checkpointBytes.Set(float64(len(data)))
	return nil
}

// syncDir fsyncs the directory dir, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// RestoreCheckpoint replaces the daemon's state with the checkpoint at
// path. The checkpoint's Spec fingerprint must match the daemon's —
// a stale or drifted checkpoint (different seed, dimensions, or kind) is
// refused with both fingerprints in the error and the in-memory state
// untouched. A missing file is returned as os.ErrNotExist so callers can
// treat it as a fresh start.
//
// Restoration is replace, not merge: the snapshot is decoded into a
// freshly opened estimator (advanced to the checkpoint's window clock
// first, for the window kind) which is swapped in whole, so restoring
// twice is idempotent.
func (s *Server) RestoreCheckpoint(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	r := wire.NewReader(data)
	if err := r.Header(checkpointMagic, s.fp); err != nil {
		return fmt.Errorf("daemon: refusing checkpoint %s: %w", path, err)
	}
	tick := r.U64()
	ingests := r.U64()
	snap := r.Blob()
	r.End()
	if err := r.Err(); err != nil {
		return fmt.Errorf("daemon: corrupt checkpoint %s: %w", path, err)
	}
	fresh, err := backend.Open(s.spec)
	if err != nil {
		return fmt.Errorf("daemon: restore: %w", err)
	}
	if win, ok := fresh.(backend.Windowed); ok && tick > 0 {
		win.Advance(tick)
	}
	if err := fresh.UnmarshalBinary(snap); err != nil {
		return fmt.Errorf("daemon: corrupt checkpoint %s: %w", path, err)
	}
	s.mu.Lock()
	s.est = fresh
	s.ingests = ingests
	s.mu.Unlock()
	return nil
}

// Checkpointer periodically persists a Server's state to one checkpoint
// file. Stop halts the loop and writes a final checkpoint, which is how
// a draining daemon guarantees its last accepted updates survive the
// restart; between checkpoints a kill -9 loses at most one interval of
// updates (which the pusher re-delivers, exactly as it would any
// unacknowledged batch).
type Checkpointer struct {
	srv   *Server
	path  string
	every time.Duration
	logf  func(format string, args ...interface{})
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
}

// StartCheckpointer begins checkpointing srv to path every interval.
// logf (nil = silent) receives one line per failed write; a failure
// leaves the previous checkpoint in place and the loop keeps trying.
func StartCheckpointer(srv *Server, path string, every time.Duration, logf func(format string, args ...interface{})) *Checkpointer {
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	c := &Checkpointer{srv: srv, path: path, every: every, logf: logf,
		stop: make(chan struct{}), done: make(chan struct{})}
	go c.run()
	return c
}

func (c *Checkpointer) run() {
	defer close(c.done)
	t := time.NewTicker(c.every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := c.srv.WriteCheckpoint(c.path); err != nil {
				c.logf("checkpoint: %v", err)
			}
		case <-c.stop:
			return
		}
	}
}

// Stop halts the periodic loop and writes one final checkpoint,
// returning the final write's error. It is idempotent; only the first
// call writes.
func (c *Checkpointer) Stop() error {
	var err error
	c.once.Do(func() {
		close(c.stop)
		<-c.done
		err = c.srv.WriteCheckpoint(c.path)
	})
	return err
}
