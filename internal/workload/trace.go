package workload

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/stream"
	"repro/internal/util"
)

// TraceReplay replays a CSV trace: each row is one turnstile update
// "item,delta" (delta optional, default 1; '#' starts a comment). The
// trace is cycled to fill exactly cfg.Length updates and items are
// folded into the domain with (item + seeded offset) mod cfg.N — the
// offset keeps the replay a function of Config.Seed (two seeds land the
// trace on different hash paths) while preserving the trace's frequency
// structure exactly. With neither Path nor Data set, an embedded
// reference trace — a heavy pair, a mid tier, a deletion churn loop —
// is replayed, keeping the default catalog free of filesystem
// dependencies.
type TraceReplay struct {
	// Path is the CSV file to replay (read on every Generate).
	Path string
	// Data is an in-memory CSV, used when Path is empty.
	Data []byte
}

// defaultTrace is the embedded reference trace: a skewed head (items 7
// and 19), a mid tier, background singletons, and an insert/delete
// churn pair proving turnstile deletions survive the replay path.
const defaultTrace = `# item,delta  (embedded gsum reference trace)
7,9
19,6
7,8
101,3
202,3
303,2
7,7
404,1
505,1
19,5
606,1
707,1
9999,4
9999,-4
808,1
7,6
909,1
19,4
1010,1
1111,1
`

// Name implements Generator.
func (TraceReplay) Name() string { return "trace" }

// Description implements Generator.
func (t TraceReplay) Description() string {
	src := "embedded reference trace"
	if t.Path != "" {
		src = t.Path
	} else if len(t.Data) > 0 {
		src = "in-memory trace"
	}
	return "CSV trace replay (" + src + "), cycled to the stream length"
}

// rows loads and parses the trace source.
func (t TraceReplay) rows() ([]stream.Update, error) {
	data := t.Data
	if t.Path != "" {
		b, err := os.ReadFile(t.Path)
		if err != nil {
			return nil, fmt.Errorf("workload: trace: %w", err)
		}
		data = b
	}
	if len(data) == 0 {
		data = []byte(defaultTrace)
	}
	var rows []stream.Update
	for i, line := range strings.Split(string(data), "\n") {
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) > 2 {
			return nil, fmt.Errorf("workload: trace line %d: want item[,delta], got %q", i+1, line)
		}
		item, err := strconv.ParseUint(strings.TrimSpace(parts[0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad item: %w", i+1, err)
		}
		delta := int64(1)
		if len(parts) == 2 {
			delta, err = strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("workload: trace line %d: bad delta: %w", i+1, err)
			}
		}
		rows = append(rows, stream.Update{Item: item, Delta: delta})
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("workload: trace source has no updates")
	}
	return rows, nil
}

// Validate checks that the trace source loads and parses. CLI frontends
// call it before a run so a missing file or a malformed row is an error
// message, not a panic mid-generate.
func (t TraceReplay) Validate() error {
	_, err := t.rows()
	return err
}

// Generate implements Generator. It panics on an unreadable or
// malformed source; frontends gate that with Validate.
func (t TraceReplay) Generate(cfg Config) *stream.Stream {
	cfg = cfg.withDefaults()
	rows, err := t.rows()
	if err != nil {
		panic(err)
	}
	s := stream.New(cfg.N)
	s.Grow(cfg.Length)
	offset := util.NewSplitMix64(cfg.Seed).Uint64n(cfg.N)
	for i := 0; i < cfg.Length; i++ {
		r := rows[i%len(rows)]
		s.Add((r.Item%cfg.N+offset)%cfg.N, r.Delta)
	}
	return s
}
