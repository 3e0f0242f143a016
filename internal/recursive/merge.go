package recursive

import "fmt"

// Merge folds another recursive sketch (same configuration and seed) into
// s, level by level. Both sketches must have been built by New with
// identical Config and rng seed so that the subsampling hashes and
// per-level sketcher hashes coincide; level counts are verified, hash
// equality is the caller's contract (as with sketch.CountSketch.Merge).
func (s *Sketch) Merge(other *Sketch) error {
	if len(s.levels) != len(other.levels) {
		return fmt.Errorf("recursive: level count mismatch %d vs %d",
			len(s.levels), len(other.levels))
	}
	for k := range s.levels {
		if err := s.levels[k].Merge(other.levels[k]); err != nil {
			return fmt.Errorf("recursive: level %d: %w", k, err)
		}
	}
	return nil
}
