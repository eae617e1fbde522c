package campaign

import "context"

// Runner executes campaigns and returns their ordered result sets. It
// is the seam between campaign *definition* (Spec/Expand) and campaign
// *execution*, so every front end — internal/exp tables, mmmbench, the
// mmmd service — can run a sweep on one box or across a worker fleet
// without caring which.
//
// There is one scheduler behind both implementations (see
// scheduler.go): one planner decides which waves run and when a cell
// retires, one board queues the cache misses, and one completion path
// fills the cache, journals and reports progress. The two Runners
// differ only in the transport that decides where a leased job runs:
// Engine runs it in an in-process slot, Dispatcher leases it to a
// fleet worker over HTTP.
//
// Run executes an expanded job set; RunSpec executes a whole spec,
// adaptively when it carries a Precision block (its job set is then
// not known up front) and exactly like Run on its expansion otherwise.
// Either way results are in expansion order regardless of scheduling,
// the run stops on the first error or context cancellation, and —
// given the per-job derived seeds — the same input produces
// byte-identical Summarize rows however the work was placed.
type Runner interface {
	Run(ctx context.Context, sc Scale, jobs []Job) (*ResultSet, error)
	RunSpec(ctx context.Context, sc Scale, spec Spec) (*ResultSet, error)
}

// Engine and Dispatcher are the two interchangeable transports.
var (
	_ Runner = (*Engine)(nil)
	_ Runner = (*Dispatcher)(nil)
)
