package core

import (
	"reflect"

	"repro/internal/sketch"
)

// ScratchBytes returns what the ingest scratch of e's stack holds between
// batches: the capacity, in bytes, of every buffer of each sketch.Batch
// the estimator reaches (a stack collapses into one), found by reflection
// as countersOf finds the counters. The row-hash family a Batch points to
// belongs to the levels and is not counted.
func ScratchBytes(e *OnePassEstimator) int {
	n := 0
	walkStructs(reflect.ValueOf(e), map[uintptr]bool{}, func(v reflect.Value) bool {
		if v.Type() != reflect.TypeOf(sketch.Batch{}) {
			return true
		}
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Slice:
				n += f.Cap() * int(f.Type().Elem().Size())
			case reflect.Array:
				n += int(f.Type().Size())
			}
		}
		return false
	})
	return n
}
