package campaign

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/api"
)

// isCanceled reports whether err is (or wraps) a context cancellation
// — the run-level terminal event is then EventCanceled, not
// EventFailed, mirroring run.finish in mmmd.
func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled)
}

// The campaign run journal: a typed, ordered event stream per run.
// Every lifecycle step of every cell — expansion, cache hit, lease,
// start, missed heartbeat, reassignment, completion, merge — is
// stamped with a sequence number and wall-clock time and fanned out to
// (a) an append-only JSONL file beside the result cache, so a crashed
// coordinator leaves a replayable post-mortem, and (b) in-memory
// subscribers feeding the mmmd SSE endpoint, which streams
// history-then-live with Last-Event-ID resume.
//
// The journal is strictly observational: it runs at job granularity
// (seconds), never inside Chip.Run, and nothing in it feeds back into
// job identity, fingerprints or result rows. Replaying a journal's
// merged events reconstructs the run's final result set byte-for-byte
// — ReplayResults is the crash post-mortem path and the
// exactly-once-merge regression oracle.

// EventType classifies one journal event; Event is one record. Both
// live in internal/api (the SSE endpoint streams them verbatim and
// mmmtail decodes them); the vocabulary is stable — JSONL journals
// are read across builds.
type (
	EventType = api.EventType
	Event     = api.Event
)

const (
	EventExpanded        = api.EventExpanded
	EventCacheHit        = api.EventCacheHit
	EventLeased          = api.EventLeased
	EventStarted         = api.EventStarted
	EventHeartbeatMissed = api.EventHeartbeatMissed
	EventReassigned      = api.EventReassigned
	EventCompleted       = api.EventCompleted
	EventFailed          = api.EventFailed
	EventMerged          = api.EventMerged
	EventCanceled        = api.EventCanceled
	EventWaveScheduled   = api.EventWaveScheduled
	EventCellRetired     = api.EventCellRetired
)

// stagedCell is a retired cell's result awaiting its turn in the
// expansion-order prefix. fp is the cell's cache key, or "" for an
// adaptive aggregate, which never ran as one job.
type stagedCell struct {
	Result
	fp string
}

// Journal is one run's event bus. Emitters (scheduler, board) call
// the typed recorders; consumers read EventsSince, which the SSE
// endpoint turns into history-then-live streaming. A nil *Journal
// records nothing, so every call site is unconditional.
//
// Merge ordering is owned here: CellMerged stages out-of-order
// retirements and emits EventMerged for the contiguous expansion-order
// prefix only, so subscribers observe the deterministic row sequence
// regardless of pool scheduling or fleet racing. The journal does not
// know the campaign's shape: fixed and adaptive cells merge alike.
type Journal struct {
	runID string
	path  string

	mu       sync.Mutex
	f        *os.File
	writeErr error
	events   []Event
	seq      int64
	wake     chan struct{}
	closed   bool

	next   int // next cell index to merge
	staged map[int]*stagedCell
}

// NewJournal opens a journal for runID. When path is non-empty the
// events are also appended to a JSONL file there (truncating any
// previous file of the same run id); an empty path keeps the journal
// in memory only.
func NewJournal(runID, path string) (*Journal, error) {
	j := &Journal{
		runID:  runID,
		path:   path,
		wake:   make(chan struct{}),
		staged: make(map[int]*stagedCell),
	}
	if path != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, fmt.Errorf("campaign: journal dir: %w", err)
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("campaign: journal: %w", err)
		}
		j.f = f
	}
	return j, nil
}

// Path returns the journal's JSONL file path ("" when memory-only).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// lock is the guard every recorder shares: it takes the journal lock
// unless the journal is nil or finished, and reports whether the
// caller now holds it.
func (j *Journal) lock() bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return false
	}
	return true
}

// emit appends events under the shared guard.
func (j *Journal) emit(evs ...Event) {
	if !j.lock() {
		return
	}
	defer j.mu.Unlock()
	for _, ev := range evs {
		j.emitLocked(ev)
	}
}

// emitLocked appends one event: stamps seq and time, persists the
// JSONL line, and wakes every waiting subscriber. Callers hold j.mu.
// File errors are sticky — journaling degrades to memory-only rather
// than failing the campaign (the journal is observational).
func (j *Journal) emitLocked(ev Event) {
	j.seq++
	ev.Seq = j.seq
	ev.Time = time.Now().UTC()
	j.events = append(j.events, ev)
	if j.f != nil && j.writeErr == nil {
		line, err := json.Marshal(&ev)
		if err == nil {
			_, err = j.f.Write(append(line, '\n'))
		}
		if err != nil {
			j.writeErr = err
		}
	}
	close(j.wake)
	j.wake = make(chan struct{})
}

// begin records a run's expansion into cells: the first event,
// carrying the cell count and scale. An adaptive run (prec non-nil)
// counts cells, not waves — wave counts are not known up front, that
// is the point — and carries its normalized precision block. Every
// cell-scoped event of a run is indexed by the cell's expansion index.
func (j *Journal) begin(sc Scale, cells int, prec *Precision) {
	if j == nil {
		return
	}
	ev := Event{Type: EventExpanded, Run: j.runID, Cell: -1, Total: cells, Scale: &sc}
	if prec != nil {
		p := *prec
		ev.Precision = &p
	}
	j.emit(ev)
}

// Leased records a lease grant; an Attempt above 1 additionally emits
// EventReassigned — the board is retrying a cell whose earlier attempt
// failed or expired.
func (j *Journal) Leased(idx int, job Job, worker string, attempt int) {
	ev := Event{Type: EventLeased, Cell: idx, Key: job.Key(),
		Worker: worker, Attempt: attempt, Wave: job.Knobs.Wave}
	if attempt > 1 {
		re := ev
		re.Type = EventReassigned
		j.emit(re, ev)
		return
	}
	j.emit(ev)
}

// Started records a cell beginning simulation.
func (j *Journal) Started(idx int, job Job, worker string, attempt int) {
	j.emit(Event{Type: EventStarted, Cell: idx, Key: job.Key(),
		Worker: worker, Attempt: attempt, Wave: job.Knobs.Wave})
}

// HeartbeatMissed records a lease reaped after missed heartbeats.
func (j *Journal) HeartbeatMissed(idx int, job Job, worker string, attempt int) {
	j.emit(Event{Type: EventHeartbeatMissed, Cell: idx, Key: job.Key(),
		Worker: worker, Attempt: attempt, Wave: job.Knobs.Wave})
}

// CellFailed records one failed attempt (the cell may be retried; a
// terminal run failure is Finish's run-level EventFailed).
func (j *Journal) CellFailed(idx int, job Job, worker string, attempt int, errMsg string) {
	j.emit(Event{Type: EventFailed, Cell: idx, Key: job.Key(),
		Worker: worker, Attempt: attempt, Error: errMsg, Wave: job.Knobs.Wave})
}

// Completed records one simulated job — a fixed cell or one wave of an
// adaptive cell — finishing on worker after wall. It is the journal's
// timing record; the board's completed map makes it exactly once per
// job.
func (j *Journal) Completed(idx int, job Job, worker string, wall time.Duration, attempt int) {
	j.emit(Event{Type: EventCompleted, Cell: idx, Key: job.Key(),
		Worker: worker, Attempt: attempt, WallMS: wall.Milliseconds(), Wave: job.Knobs.Wave})
}

// CacheHit records one job served from the result cache.
func (j *Journal) CacheHit(idx int, job Job) {
	j.emit(Event{Type: EventCacheHit, Cell: idx, Key: job.Key(), Hit: true, Wave: job.Knobs.Wave})
}

// WaveScheduled records the sequential-stopping planner putting one
// wave of an adaptive cell on the schedule; half is the cell's Wilson
// half-width going into the wave (1 before any trials ran — no data,
// widest possible interval).
func (j *Journal) WaveScheduled(cell int, job Job, half float64) {
	j.emit(Event{Type: EventWaveScheduled, Cell: cell, Key: job.Key(),
		Wave: job.Knobs.Wave, Trials: job.Knobs.ReliaTrials, HalfWidth: half})
}

// CellRetired records an adaptive cell leaving the schedule after
// trials total trials with final half-width half; capped marks a cell
// that hit MaxTrials instead of its target.
func (j *Journal) CellRetired(cell int, job Job, trials int, half float64, capped bool) {
	j.emit(Event{Type: EventCellRetired, Cell: cell, Key: job.Key(),
		Trials: trials, HalfWidth: half, Capped: capped})
}

// CellMerged stages a retired cell's result and advances the merged
// prefix: every staged cell that is now contiguous from the front
// emits its EventMerged — in expansion order, exactly once, carrying
// the Job, Metrics and fingerprint fp — so subscribers see the
// deterministic row sequence as it becomes available. Duplicate
// deliveries for an already-staged or already-merged cell are dropped.
func (j *Journal) CellMerged(cell int, res Result, fp string) {
	if !j.lock() {
		return
	}
	defer j.mu.Unlock()
	if cell < j.next || j.staged[cell] != nil {
		return
	}
	j.staged[cell] = &stagedCell{Result: res, fp: fp}
	for st := j.staged[j.next]; st != nil; st = j.staged[j.next] {
		delete(j.staged, j.next)
		jb, mt := st.Job, st.Metrics
		j.emitLocked(Event{Type: EventMerged, Cell: j.next, Key: jb.Key(),
			Hit: st.CacheHit, Fp: st.fp, Job: &jb, Metrics: &mt})
		j.next++
	}
}

// Finish terminates the journal: a non-nil error emits the run-level
// terminal event (EventCanceled for context cancellation, EventFailed
// otherwise), then the file is closed and subscribers observe the end
// of the stream. Idempotent; nil-safe.
func (j *Journal) Finish(err error) {
	if !j.lock() {
		return
	}
	defer j.mu.Unlock()
	if err != nil {
		typ := EventFailed
		if isCanceled(err) {
			typ = EventCanceled
		}
		j.emitLocked(Event{Type: typ, Run: j.runID, Cell: -1, Error: err.Error()})
	}
	j.closed = true
	if j.f != nil {
		_ = j.f.Close()
		j.f = nil
	}
	close(j.wake)
	j.wake = make(chan struct{})
}

// Err reports the sticky journal-file write error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeErr
}

// Events returns a copy of the full event history.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.events...)
}

// EventsSince returns every event with Seq > after, a channel that
// closes on the next append (or on Finish), and whether the journal
// has finished. This is the history-then-live subscription primitive:
// the full history is the buffer, so a slow consumer never blocks an
// emitter — it just reads further behind.
func (j *Journal) EventsSince(after int64) (evs []Event, wake <-chan struct{}, closed bool) {
	if j == nil {
		ch := make(chan struct{})
		close(ch)
		return nil, ch, true
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range j.events {
		if j.events[i].Seq > after {
			evs = append(evs, j.events[i:]...)
			break
		}
	}
	return evs, j.wake, j.closed
}

// ReadJournal decodes a JSONL journal stream.
func ReadJournal(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("campaign: journal line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign: journal: %w", err)
	}
	return events, nil
}

// ReadJournalFile reads a JSONL journal from disk.
func ReadJournalFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJournal(f)
}

// ReplayResults reconstructs a run's result set from its journal: the
// merged events, in order, are the cells. A complete journal replays
// to the exact ResultSet the run produced — Summarize over it renders
// the same rows byte-for-byte, which is both the crash post-mortem
// path and the exactly-once regression oracle.
func ReplayResults(events []Event) (*ResultSet, error) {
	rs := &ResultSet{}
	found := false
	for i := range events {
		ev := &events[i]
		switch ev.Type {
		case EventExpanded:
			if found {
				return nil, fmt.Errorf("campaign: journal has two expanded events")
			}
			found = true
			if ev.Scale != nil {
				rs.Scale = *ev.Scale
			}
			rs.Results = make([]Result, 0, ev.Total)
		case EventMerged:
			if !found {
				return nil, fmt.Errorf("campaign: merged event before expanded")
			}
			if ev.Job == nil || ev.Metrics == nil {
				return nil, fmt.Errorf("campaign: merged event %d lacks job or metrics", ev.Seq)
			}
			if ev.Cell != len(rs.Results) {
				return nil, fmt.Errorf("campaign: merged cell %d out of order (want %d)",
					ev.Cell, len(rs.Results))
			}
			rs.Results = append(rs.Results, Result{Job: *ev.Job, Metrics: *ev.Metrics, CacheHit: ev.Hit})
			if ev.Hit {
				rs.Hits++
			} else {
				rs.Misses++
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("campaign: journal has no expanded event")
	}
	return rs, nil
}

// JournalCheck summarizes a validated journal.
type JournalCheck struct {
	Events   int
	Total    int // cells declared by the expanded event
	Merged   int
	Types    map[EventType]int
	Complete bool // every cell merged
	Outcome  string
}

// ValidateEvents checks a journal's structural invariants: sequence
// numbers strictly increasing, the expanded event first, merged events
// in strict expansion order with exactly one per cell and full
// payloads, cell indices in range, and any terminal run-level event
// last. This is the oracle behind obscheck -journal.
func ValidateEvents(events []Event) (JournalCheck, error) {
	chk := JournalCheck{Types: make(map[EventType]int), Outcome: "running"}
	if len(events) == 0 {
		return chk, fmt.Errorf("journal is empty")
	}
	chk.Events = len(events)
	expanded := false
	var lastSeq int64
	terminalAt := -1
	for i := range events {
		ev := &events[i]
		if ev.Seq <= lastSeq {
			return chk, fmt.Errorf("event %d: seq %d not increasing (prev %d)", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if terminalAt >= 0 {
			return chk, fmt.Errorf("event seq %d follows terminal %s event", ev.Seq, events[terminalAt].Type)
		}
		chk.Types[ev.Type]++
		switch ev.Type {
		case EventExpanded:
			if expanded {
				return chk, fmt.Errorf("event seq %d: duplicate expanded", ev.Seq)
			}
			if i != 0 {
				return chk, fmt.Errorf("expanded event at position %d, want first", i)
			}
			expanded = true
			chk.Total = ev.Total
		case EventMerged:
			if ev.Cell != chk.Merged {
				return chk, fmt.Errorf("event seq %d: merged cell %d out of order (want %d)",
					ev.Seq, ev.Cell, chk.Merged)
			}
			if ev.Job == nil || ev.Metrics == nil {
				return chk, fmt.Errorf("event seq %d: merged cell %d lacks job or metrics", ev.Seq, ev.Cell)
			}
			chk.Merged++
		case EventCanceled:
			if ev.Cell == -1 {
				terminalAt = i
				chk.Outcome = "canceled"
			}
		case EventFailed:
			if ev.Cell == -1 {
				terminalAt = i
				chk.Outcome = "failed"
			}
		}
		if !expanded {
			// A run canceled before expansion journals only run-level
			// events; anything cell-scoped before expanded is corrupt.
			if ev.Cell != -1 {
				return chk, fmt.Errorf("event seq %d: cell event before expanded", ev.Seq)
			}
			continue
		}
		if ev.Cell >= chk.Total {
			return chk, fmt.Errorf("event seq %d: cell %d out of range (total %d)", ev.Seq, ev.Cell, chk.Total)
		}
	}
	if expanded && chk.Merged == chk.Total && terminalAt < 0 {
		chk.Complete = true
		chk.Outcome = "done"
	}
	return chk, nil
}
