package hotpath

// BatchSize lets the external test package place streams on either side
// of Process's serial-fallback and batch-flush thresholds.
const BatchSize = batchSize
