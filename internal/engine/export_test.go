package engine

// RefRun exposes the reference executor (reference_test.go) to the external
// differential test, which needs core's option spaces and the workload
// generator — packages an in-package test cannot import.
func RefRun(db *DB, q *Query, h Hint) (*Result, ExecStats, error) { return db.refRun(q, h) }
