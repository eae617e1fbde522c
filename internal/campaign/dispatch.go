package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/api"
)

// DispatchOptions configures a Dispatcher.
type DispatchOptions struct {
	// Workers lists the worker base URLs ("http://host:port"); use
	// ParseWorkerList to build it from a -workers flag.
	Workers []string
	// Cache, when non-nil, is consulted before dispatch (hits never
	// leave the coordinator) and filled as remote completions arrive,
	// so mixed local/remote reruns resume for free.
	Cache Cache
	// OnProgress mirrors Options.OnProgress: called in completion
	// order with running totals.
	OnProgress func(done, total, hits int)
	// Addr is the coordinator's listen address for the per-campaign
	// job board; default "127.0.0.1:0" (an ephemeral port).
	Addr string
	// LeaseTTL bounds how long a worker may go silent before its
	// leases are revoked and reassigned; default 15s.
	LeaseTTL time.Duration
	// StallTimeout fails the campaign when no worker has contacted
	// the board at all for this long — the whole fleet died or lost
	// the network, and waiting further cannot make progress. Default
	// 2 minutes. (An idle poll counts as contact: a live fleet never
	// stalls, however slow its jobs, because workers heartbeat and
	// poll continuously.)
	StallTimeout time.Duration
	// Obs, when non-nil, instruments the lease protocol (grants,
	// expiries, reassignments, job latencies, worker liveness).
	Obs *FleetObs
	// Journal, when non-nil, receives the run's lifecycle events —
	// expansion, cache hits, lease grants/reassignments, completions
	// and merges — mirroring Options.Journal for distributed runs.
	Journal *Journal
}

// Dispatcher is the remote Runner: the scheduler with a fleet of mmmd
// workers as its transport. It serves each campaign's job board over
// HTTP and merges the completions — in expansion order, through the
// same content-addressed cache — so a sharded campaign is
// byte-identical to a local one. It is stateless across runs (each run
// gets its own board and listener) and safe for concurrent runs.
type Dispatcher struct {
	opts DispatchOptions
}

// NewDispatcher returns a dispatcher over the given fleet.
func NewDispatcher(opts DispatchOptions) *Dispatcher {
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
	if opts.StallTimeout <= 0 {
		opts.StallTimeout = 2 * time.Minute
	}
	return &Dispatcher{opts: opts}
}

// Run executes an expanded job set across the fleet. Cache hits are
// resolved locally; the rest go on the board, the fleet is invited to
// pull, and the call blocks until every job completed, one failed
// terminally, or ctx was cancelled — in which case every outstanding
// lease is revoked before returning, so no worker's late result can be
// double-counted by a successor run (re-running simply resumes from
// the cache).
func (d *Dispatcher) Run(ctx context.Context, sc Scale, jobs []Job) (*ResultSet, error) {
	return d.run(ctx, fixedPlanner(sc, jobs))
}

// RunSpec executes a whole campaign spec across the fleet: adaptively
// when it carries a precision block — the board re-leases capacity
// freed by retired cells to the widest remaining intervals — and as
// its expanded job set otherwise.
func (d *Dispatcher) RunSpec(ctx context.Context, sc Scale, spec Spec) (*ResultSet, error) {
	p, err := planSpec(sc, spec)
	if err != nil {
		return nil, err
	}
	return d.run(ctx, p)
}

// run schedules a planned campaign on the remote transport.
func (d *Dispatcher) run(ctx context.Context, p *planner) (*ResultSet, error) {
	if len(d.opts.Workers) == 0 {
		return nil, fmt.Errorf("campaign: dispatcher has no workers")
	}
	return schedule(ctx, p, d, d.opts.Cache, d.opts.Journal, d.opts.OnProgress)
}

// fleetMaxAttempts bounds how often one fleet job may fail (error or
// lease expiry) before the campaign fails.
const fleetMaxAttempts = 3

// board builds a fleet board: at most 4 outstanding leases per worker,
// leases expire after LeaseTTL without a heartbeat, and a job may fail
// fleetMaxAttempts times before the run does.
func (d *Dispatcher) board(sc Scale) *board {
	b := newBoard(sc, d.opts.LeaseTTL, max(1, 4*len(d.opts.Workers)), fleetMaxAttempts, true)
	b.fobs = d.opts.Obs
	return b
}

// serve is the remote transport: listen, invite the fleet to pull,
// reap expired leases (watching for total fleet loss) until the board
// closes, and return its terminal error.
func (d *Dispatcher) serve(ctx context.Context, b *board) error {
	ln, err := net.Listen("tcp", d.opts.Addr)
	if err != nil {
		return fmt.Errorf("campaign: coordinator listen: %w", err)
	}
	srv := &http.Server{Handler: b.handler()}
	go func() { _ = srv.Serve(ln) }() // Serve returns once Close tears the listener down
	defer srv.Close()

	boardURL := "http://" + ln.Addr().String()
	attached := 0
	var lastErr error
	for _, w := range d.opts.Workers {
		if err := attachWorker(ctx, w, boardURL); err != nil {
			lastErr = err
			continue
		}
		attached++
	}
	if attached == 0 {
		b.close(lastErr)
		return fmt.Errorf("campaign: no worker attached: %w", lastErr)
	}

	// Reap expired leases — and watch for total fleet loss — until
	// the board closes.
	reapDone := make(chan struct{})
	go func() {
		defer close(reapDone)
		t := time.NewTicker(d.opts.LeaseTTL / 4)
		defer t.Stop()
		for {
			select {
			case <-b.doneCh:
				return
			case now := <-t.C:
				b.reap(now)
				if idle := b.idleFor(now); idle > d.opts.StallTimeout {
					b.close(fmt.Errorf(
						"campaign: no worker contact for %v: fleet lost", idle.Round(time.Second)))
					return
				}
			}
		}
	}()

	// Cancellation closes the board too, revoking everything in flight
	// before this returns: a SIGTERM'd coordinator leaves no orphaned
	// leases, and any completion racing in later is rejected with 410
	// and discarded.
	<-reapDone
	return b.wait()
}

// attachWorker invites one worker to pull from the board.
func attachWorker(ctx context.Context, workerURL, boardURL string) error {
	body, err := json.Marshal(attachRequest{Coordinator: boardURL, Check: protocolCheck()})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		workerURL+api.PathPrefix+"/attach", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := fleetClient.Do(req)
	if err != nil {
		return fmt.Errorf("campaign: attach %s: %w", workerURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("campaign: attach %s: %d %s", workerURL, resp.StatusCode, e.Error)
	}
	return nil
}

// fleetClient carries every coordinator-worker HTTP call: attach
// requests, and a worker's lease, heartbeat and complete calls. Its
// timeout bounds how long a dead peer can stall either side.
var fleetClient = &http.Client{Timeout: 10 * time.Second}
