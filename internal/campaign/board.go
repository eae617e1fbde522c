package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
)

// board is a campaign's job queue and lease state machine. It holds
// the scheduler's uncached jobs; a transport leases them out — local
// slots by direct calls, fleet workers through the HTTP handlers,
// which only decode and encode around the same methods. All state
// transitions happen under mu, and every terminal path funnels
// through closeLocked so doneCh closes exactly once and no lease
// outlives the board.
type board struct {
	sc          Scale
	check       string
	ttl         time.Duration
	maxInflight int
	maxAttempts int
	// remote marks a fleet board: lease grants are journaled, and a
	// failed job's error names the worker that reported it.
	remote bool
	// fobs instruments the lease protocol; nil records nothing.
	fobs *FleetObs
	// jnl journals the lease lifecycle (leased, started, reassigned,
	// heartbeat_missed, completed/failed); nil records nothing. Merges
	// are the scheduler's, through expand.
	// Journal methods take only the journal's own lock, so calling them
	// under b.mu cannot deadlock.
	jnl *Journal
	// expand, when non-nil, runs under mu after each first completion:
	// the scheduler's completion path. It may return follow-up jobs —
	// a cell's next wave — which join the queue immediately, so a free
	// slot's very next lease can pick one up; the board only closes
	// when a completion yields no expansion and nothing is left. It
	// must not call back into the board, and an error fails the
	// campaign. Running it under mu is a deliberate trade-off:
	// completions arrive at job-runtime granularity (seconds), so even
	// a disk-cache write (µs–ms) held under the lock is orders of
	// magnitude below the TTL/3 heartbeat budget, and in exchange
	// delivery order needs no extra machinery.
	expand func(bj boardJob, m core.Metrics) ([]boardJob, error)

	mu          sync.Mutex
	wake        *sync.Cond // signalled when jobs arrive or the board closes
	lastContact time.Time  // any worker request; stall detection
	jobs        []boardJob
	// pending holds job indices awaiting a lease. Leases pop the
	// highest priority — the widest confidence interval — FIFO among
	// equals; fixed jobs all share one priority, so they pop in order.
	pending   []int
	attempts  map[int]int
	completed map[int]bool
	leases    map[string]*lease
	workers   map[string]*workerHealth
	inflight  int
	seq       int
	done      int
	need      int
	closed    bool
	err       error
	doneCh    chan struct{}
}

// boardJob is one queued job: the wave to run, its cache key, the
// cell it belongs to (the journal's index) and its lease priority.
type boardJob struct {
	job  Job
	fp   string
	cell int
	prio float64
}

// lease is one outstanding job assignment. A lease record is kept
// until the board closes; revoked/expired leases stay in the map with
// ended=true so a late heartbeat or complete from the old holder gets
// an explicit 410 instead of corrupting a reassigned job.
type lease struct {
	id      string
	idx     int
	worker  string
	granted time.Time
	expires time.Time
	ended   bool
}

// workerHealth tracks per-worker failures for the lease-denial
// backoff: a worker whose leases expire or whose jobs error is denied
// new leases for an exponentially growing window, so a sick box stops
// soaking up reassignments while healthy workers drain the queue.
type workerHealth struct {
	failures     int
	backoffUntil time.Time
}

// backoffBase is the first per-worker denial window; it doubles per
// consecutive failure up to backoffMax.
const (
	backoffBase = 500 * time.Millisecond
	backoffMax  = 30 * time.Second
)

// newBoard builds an empty board; add queues its jobs.
func newBoard(sc Scale, ttl time.Duration, maxInflight, maxAttempts int, remote bool) *board {
	b := &board{
		sc:          sc,
		check:       protocolCheck(),
		ttl:         ttl,
		maxInflight: maxInflight,
		maxAttempts: maxAttempts,
		remote:      remote,
		attempts:    make(map[int]int),
		completed:   make(map[int]bool),
		leases:      make(map[string]*lease),
		workers:     make(map[string]*workerHealth),
		lastContact: time.Now(),
		doneCh:      make(chan struct{}),
	}
	b.wake = sync.NewCond(&b.mu)
	return b
}

// add queues jobs on the board.
func (b *board) add(jobs []boardJob) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.addLocked(jobs)
}

func (b *board) addLocked(jobs []boardJob) {
	for _, bj := range jobs {
		b.pending = append(b.pending, len(b.jobs))
		b.jobs = append(b.jobs, bj)
		b.need++
	}
	b.wake.Broadcast()
}

// boardState is what a lease attempt found, on the board or over the
// wire.
type boardState int

const (
	boardBusy boardState = iota // leased a job
	boardIdle                   // nothing to lease right now
	boardOver                   // board closed: campaign done or cancelled
)

// lease hands worker the next pending job. With wait set (local
// slots) it blocks until a job can be handed out or the board closes;
// otherwise it reports boardIdle when nothing can be handed out right
// now — queue drained, in-flight cap reached, or the worker backing
// off after failures. Jobs may reappear via lease expiry, so an empty
// queue is not "done": only boardOver is.
func (b *board) lease(worker string, wait bool) (string, boardJob, boardState) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var now time.Time
	for {
		if b.closed {
			return "", boardJob{}, boardOver
		}
		now = time.Now()
		if !now.Before(b.workerLocked(worker).backoffUntil) &&
			b.inflight < b.maxInflight && len(b.pending) > 0 {
			break
		}
		if !wait {
			return "", boardJob{}, boardIdle
		}
		b.wake.Wait()
	}
	idx := b.popPendingLocked()
	b.seq++
	l := &lease{
		id:      fmt.Sprintf("l%d", b.seq),
		idx:     idx,
		worker:  worker,
		granted: now,
		expires: now.Add(b.ttl),
	}
	b.leases[l.id] = l
	b.inflight++
	b.fobs.LeaseGranted(worker, b.attempts[idx] > 0)
	bj := b.jobs[idx]
	// Slots lease only when free and simulate immediately, so the
	// lease grant is also the start of execution.
	if b.remote {
		b.jnl.Leased(bj.cell, bj.job, worker, b.attempts[idx]+1)
	}
	b.jnl.Started(bj.cell, bj.job, worker, b.attempts[idx]+1)
	return l.id, bj, boardBusy
}

// heartbeat extends a live lease; false means it was revoked or the
// board closed.
func (b *board) heartbeat(id string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	l := b.leases[id]
	if b.closed || l == nil || l.ended {
		return false
	}
	l.expires = time.Now().Add(b.ttl)
	b.fobs.Heartbeat(l.worker)
	return true
}

// complete records the outcome of lease id: a job error (jobErr), or
// metrics m for the job whose cache key is fp. It returns the status
// to report, or false when the result is discarded — the lease was
// revoked or expired-and-reassigned, or the board closed (possibly
// because this very completion failed the campaign). Per-job derived
// seeds make simulations deterministic, so a reassigned run produces
// the identical payload: dropping a late one loses nothing and
// guarantees each job is counted once.
func (b *board) complete(id, fp string, m *core.Metrics, jobErr error) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	l := b.leases[id]
	if b.closed || l == nil || l.ended {
		return "", false
	}
	l.ended = true
	b.inflight--
	b.fobs.JobCompleted(l.worker, time.Since(l.granted), jobErr != nil)

	idx, bj := l.idx, b.jobs[l.idx]
	attempt := b.attempts[idx] + 1
	if jobErr == nil && (fp != bj.fp || m == nil) {
		b.jnl.CellFailed(bj.cell, bj.job, l.worker, attempt,
			fmt.Sprintf("fingerprint mismatch: got %q want %q", fp, bj.fp))
		b.jobFailedLocked(idx, l.worker, fmt.Errorf(
			"campaign: worker %s returned fingerprint %q for job %s (want %q)",
			l.worker, fp, bj.job.Key(), bj.fp))
		return "recorded", true
	}
	if jobErr != nil {
		b.jnl.CellFailed(bj.cell, bj.job, l.worker, attempt, jobErr.Error())
		if b.remote {
			jobErr = fmt.Errorf("campaign: worker %s: job %s: %w", l.worker, bj.job.Key(), jobErr)
		}
		b.jobFailedLocked(idx, l.worker, jobErr)
		return "recorded", true
	}
	if b.completed[idx] {
		return "duplicate", true
	}
	b.completed[idx] = true
	b.done++
	b.workerLocked(l.worker).failures = 0
	b.jnl.Completed(bj.cell, bj.job, l.worker, time.Since(l.granted), attempt)
	// Expansion must run before the done==need check: a wave completion
	// that schedules a follow-up wave grows need in the same critical
	// section, so the board can never close with a cell still owing
	// trials.
	if b.expand != nil {
		added, err := b.expand(bj, *m)
		if err != nil {
			b.closeLocked(err)
			return "", false
		}
		b.addLocked(added)
	}
	if b.done == b.need {
		b.closeLocked(nil)
	}
	return "accepted", true
}

// popPendingLocked removes and returns the next index to lease:
// highest priority first, FIFO among equals.
func (b *board) popPendingLocked() int {
	best := 0
	for i := 1; i < len(b.pending); i++ {
		if b.jobs[b.pending[i]].prio > b.jobs[b.pending[best]].prio {
			best = i
		}
	}
	idx := b.pending[best]
	b.pending = append(b.pending[:best], b.pending[best+1:]...)
	return idx
}

// jobFailedLocked records a failed attempt: the worker backs off and
// the job is requeued, until the attempt budget is spent — then the
// whole campaign fails with the underlying error.
func (b *board) jobFailedLocked(idx int, worker string, err error) {
	b.workerFailureLocked(worker)
	b.attempts[idx]++
	if b.attempts[idx] >= b.maxAttempts {
		b.closeLocked(err)
		return
	}
	if !b.completed[idx] {
		b.pending = append(b.pending, idx)
		b.wake.Broadcast()
	}
}

// workerFailureLocked bumps a worker's failure count and backoff
// window (exponential, capped).
func (b *board) workerFailureLocked(worker string) {
	wh := b.workerLocked(worker)
	wh.failures++
	d := backoffBase << uint(wh.failures-1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	wh.backoffUntil = time.Now().Add(d)
}

func (b *board) workerLocked(name string) *workerHealth {
	wh := b.workers[name]
	if wh == nil {
		wh = &workerHealth{}
		b.workers[name] = wh
	}
	return wh
}

// reap expires overdue leases: each one counts as a failure of its
// holder (heartbeats stopped — the worker died or lost its network)
// and its job goes back in the queue for reassignment. Only fleet
// boards run a reaper; local slots cannot go silent.
func (b *board) reap(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for _, l := range b.leases {
		if l.ended || now.Before(l.expires) {
			continue
		}
		l.ended = true
		b.inflight--
		b.fobs.LeaseExpired(l.worker)
		bj := b.jobs[l.idx]
		b.jnl.HeartbeatMissed(bj.cell, bj.job, l.worker, b.attempts[l.idx]+1)
		b.jobFailedLocked(l.idx, l.worker, fmt.Errorf(
			"campaign: worker %s lease on job %s expired %d times",
			l.worker, bj.job.Key(), b.attempts[l.idx]+1))
		if b.closed {
			return
		}
	}
}

// close terminates the board: every live lease is revoked (later
// heartbeats and completes are refused and their results discarded),
// waiting slots wake, and doneCh closes. err == nil means the campaign
// completed.
func (b *board) close(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closeLocked(err)
}

func (b *board) closeLocked(err error) {
	if b.closed {
		return
	}
	b.closed = true
	b.err = err
	for _, l := range b.leases {
		if !l.ended {
			l.ended = true
			b.inflight--
		}
	}
	b.wake.Broadcast()
	close(b.doneCh)
}

// wait blocks until the board closes and returns its terminal error.
func (b *board) wait() error {
	<-b.doneCh
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// liveLeases reports the number of un-ended leases — zero after close,
// which the shutdown regression test pins.
func (b *board) liveLeases() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, l := range b.leases {
		if !l.ended {
			n++
		}
	}
	return n
}

// handler routes the board's worker-facing endpoints: thin JSON
// wrappers around lease, heartbeat and complete. Every request — even
// an idle 204 lease poll — counts as fleet contact for the stall
// detector: a polling worker is alive and will drain the queue
// eventually, whereas total silence means the fleet is gone.
func (b *board) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /lease", b.handleLease)
	mux.HandleFunc("POST /heartbeat", b.handleHeartbeat)
	mux.HandleFunc("POST /complete", b.handleComplete)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		b.mu.Lock()
		b.lastContact = time.Now()
		b.mu.Unlock()
		mux.ServeHTTP(w, req)
	})
}

// idleFor reports how long the board has gone without any worker
// contact.
func (b *board) idleFor(now time.Time) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return now.Sub(b.lastContact)
}

func (b *board) handleLease(w http.ResponseWriter, req *http.Request) {
	var lr leaseRequest
	if err := json.NewDecoder(req.Body).Decode(&lr); err != nil {
		httpErrorJSON(w, http.StatusBadRequest, "bad lease request: %v", err)
		return
	}
	if lr.Check != b.check {
		httpErrorJSON(w, http.StatusConflict,
			"incompatible worker %q: %s", lr.Worker, explainCheckMismatch(b.check, lr.Check))
		return
	}
	id, bj, state := b.lease(lr.Worker, false)
	switch state {
	case boardOver:
		b.writeGone(w)
	case boardIdle:
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSONTo(w, http.StatusOK, leaseResponse{
			LeaseID:     id,
			Job:         bj.job,
			Scale:       b.sc,
			SimSeed:     bj.job.SimSeed(),
			Fingerprint: bj.fp,
			TTLMS:       b.ttl.Milliseconds(),
		})
	}
}

func (b *board) handleHeartbeat(w http.ResponseWriter, req *http.Request) {
	var hr heartbeatRequest
	if err := json.NewDecoder(req.Body).Decode(&hr); err != nil {
		httpErrorJSON(w, http.StatusBadRequest, "bad heartbeat: %v", err)
		return
	}
	if !b.heartbeat(hr.LeaseID) {
		b.writeGone(w)
		return
	}
	writeJSONTo(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (b *board) handleComplete(w http.ResponseWriter, req *http.Request) {
	var cr completeRequest
	if err := json.NewDecoder(req.Body).Decode(&cr); err != nil {
		httpErrorJSON(w, http.StatusBadRequest, "bad completion: %v", err)
		return
	}
	var jobErr error
	if cr.Error != "" {
		jobErr = errors.New(cr.Error)
	}
	status, ok := b.complete(cr.LeaseID, cr.Fingerprint, cr.Metrics, jobErr)
	if !ok {
		b.writeGone(w)
		return
	}
	writeJSONTo(w, http.StatusOK, map[string]string{"status": status})
}

func (b *board) writeGone(w http.ResponseWriter) {
	b.mu.Lock()
	st := boardStatus{Done: b.closed && b.err == nil, Error: errString(b.err)}
	b.mu.Unlock()
	writeJSONTo(w, http.StatusGone, st)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// writeJSONTo and httpErrorJSON are the board/worker-side JSON
// helpers (cmd/mmmd has its own; these keep internal/campaign
// self-contained).
func writeJSONTo(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpErrorJSON(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSONTo(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
