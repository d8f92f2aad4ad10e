package engine

// PerWorker returns a getter of per-worker scratch state for a Tasks run
// on Workers(parallelism) workers: the first call for a worker builds
// its S with newScratch (a worker that never claims a task never pays
// for a scratch), later calls return the same S.
//
// Tasks never runs two tasks on one worker index at once, so the getter
// needs no lock. The determinism contract is inherited from Tasks, with
// one addition the callers must honor: scratch state may carry over
// between tasks on the same worker, and which tasks share a worker is
// scheduling-dependent, so a task must leave nothing in the scratch that
// can influence a later task's output — pools and arenas (whose reuse
// changes allocation, never values) are fine, and so is a memo of a pure
// function of its key (its answers do not depend on which tasks filled
// it); a cache whose answers depend on the tasks that filled it is not.
func PerWorker[S any](parallelism int, newScratch func() S) func(worker int) S {
	scratches := make([]S, Workers(parallelism))
	ready := make([]bool, len(scratches))
	return func(worker int) S {
		if !ready[worker] {
			scratches[worker] = newScratch()
			ready[worker] = true
		}
		return scratches[worker]
	}
}
