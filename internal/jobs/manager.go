package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tafpga/internal/obs"
)

// State is a job's lifecycle position: queued → running → done | failed |
// cancelled. A job interrupted by a daemon crash returns to queued when the
// next daemon restores its state directory.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ParseState maps a query-parameter string onto a State ("" stays the
// no-filter zero value); anything else is an admission error.
func ParseState(s string) (State, error) {
	switch st := State(s); st {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		return st, nil
	default:
		return "", fmt.Errorf("jobs: unknown state %q (want queued, running, done, failed, or cancelled)", s)
	}
}

// Event types.
const (
	EventState    = "state"
	EventProgress = "progress"
	// EventRecovered marks a job re-enqueued from its spec file after a
	// daemon restart.
	EventRecovered = "recovered"
)

// Event is one line of a job's NDJSON progress stream: a state transition,
// a recovery marker, or one Algorithm-1 iteration of one benchmark run.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"`
	// State transition fields.
	State State  `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// Progress fields (one Algorithm-1 iteration).
	Benchmark string `json:"benchmark,omitempty"`
	// Phase attributes the iteration to a sub-run of the benchmark — a
	// thermal-place-compare job runs each benchmark twice ("baseline",
	// "thermal") and a streaming consumer needs to tell them apart.
	Phase     string `json:"phase,omitempty"`
	Iteration int    `json:"iteration,omitempty"`
	// AmbientC is the ambient of the run the iteration belongs to. Every
	// progress event sets it, 0 °C included; state events leave it nil.
	AmbientC  *float64 `json:"ambient_c,omitempty"`
	FmaxMHz   float64  `json:"fmax_mhz,omitempty"`
	MaxDeltaC float64  `json:"max_delta_c,omitempty"`
	MaxC      float64  `json:"max_c,omitempty"`
	Converged bool     `json:"converged,omitempty"`
	// VddV is the candidate core rail of a min-energy bisection probe
	// (the progress stream narrates the voltage search, one event per
	// probe); 0 on fmax-objective iterations.
	VddV float64 `json:"vdd_v,omitempty"`
}

// RunFunc executes one spec. It must honor ctx between units of work and
// may call emit for per-iteration progress; the returned value must be
// JSON-marshalable (it becomes the job's result).
type RunFunc func(ctx context.Context, spec Spec, emit func(Event)) (any, error)

// Options tunes a Manager.
type Options struct {
	// Workers bounds concurrent job execution (default 1: guardband runs
	// already fan out internally over benchmarks).
	Workers int
	// MaxQueue bounds the number of queued-but-not-running jobs; Submit
	// fails with ErrQueueFull beyond it (default 64).
	MaxQueue int
	// TTL is how long finished jobs stay retrievable before eviction
	// (default 15 minutes).
	TTL time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
	// Registry, when set, receives the manager's metrics.
	Registry *obs.Registry
	// Journal, when non-nil, makes the manager durable: each admitted job's
	// spec and each finished job's view and history are written to the
	// state directory before they are acknowledged, and the next New over
	// the same directory restores them — finished jobs come back with their
	// results byte-identical, unfinished jobs are re-enqueued. The caller
	// keeps ownership and closes it after Close/Drain.
	Journal *Journal
	// Deprecated: ignored; jobs are never retried (the flow is deterministic).
	Retry RetryPolicy
}

// Deprecated: ignored; jobs are never retried (the flow is deterministic).
type RetryPolicy struct {
	MaxAttempts int
}

// Sentinel errors, mapped to HTTP statuses by the server.
var (
	ErrNotFound  = errors.New("jobs: no such job")
	ErrQueueFull = errors.New("jobs: queue full")
	ErrDraining  = errors.New("jobs: manager draining")
	ErrFinished  = errors.New("jobs: job already finished")
)

// job is the manager-internal record. All fields are guarded by the
// manager's mutex. The daemon keeps every finished job for the TTL, so a
// finished job holds only its view: finishLocked drops what only an
// unfinished job needs (key, cancel, subs) and its events (see history).
type job struct {
	id     string
	spec   Spec
	key    string
	state  State
	cancel context.CancelFunc
	// cancelRequested distinguishes a user cancellation from a failure
	// that happens to wrap context.Canceled.
	cancelRequested bool
	// recovered marks a job re-enqueued from its spec file at restart.
	recovered                  bool
	created, started, finished time.Time
	result                     any
	errMsg                     string
	// events is the history of an unfinished job. A finished job's history
	// is in its finish file; without one (no state dir, a failed write) it
	// stays in memory as history, the JSON the finish file would embed, or
	// as events if it does not marshal.
	events  []Event
	history json.RawMessage
	// subs are the live subscribers, created by the first Subscribe.
	subs map[chan Event]struct{}
}

// View is the JSON representation of a job.
type View struct {
	ID       string     `json:"id"`
	Spec     Spec       `json:"spec"`
	State    State      `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Recovered marks a job that was re-enqueued after a daemon restart.
	Recovered bool   `json:"recovered,omitempty"`
	Result    any    `json:"result,omitempty"`
	Error     string `json:"error,omitempty"`
}

// metrics bundles the manager's instruments.
type metrics struct {
	submitted, deduped           *obs.Counter
	completed, failed, cancelled *obs.Counter
	recovered, restored          *obs.Counter
	journalRecords               *obs.Counter
	journalErrors                *obs.Counter
	queuedGauge, runningGauge    *obs.Gauge
	duration                     *obs.Histogram
	// registry backs the per-kind submission counter (byKind); labelled
	// series are created lazily per observed kind.
	registry *obs.Registry
	byKind   map[Kind]*obs.Counter
}

// submittedKind bumps tafpgad_jobs_total{kind="..."} for one accepted
// submission (deduped ones included — the label tracks demand, not work).
func (m *metrics) submittedKind(k Kind) {
	c, ok := m.byKind[k]
	if !ok {
		c = m.registry.CounterL("tafpgad_jobs_total", "Accepted submissions by job kind.", fmt.Sprintf("kind=%q", string(k)))
		m.byKind[k] = c
	}
	c.Inc()
}

func newMetrics(r *obs.Registry) *metrics {
	if r == nil {
		r = obs.NewRegistry() // throwaway: instruments still work, nothing scrapes them
	}
	return &metrics{
		registry:       r,
		byKind:         map[Kind]*obs.Counter{},
		submitted:      r.Counter("tafpgad_jobs_submitted_total", "Jobs accepted by POST /v1/jobs (deduped submissions included)."),
		deduped:        r.Counter("tafpgad_jobs_deduped_total", "Submissions coalesced onto an already queued or running identical job."),
		completed:      r.Counter("tafpgad_jobs_completed_total", "Jobs that finished successfully."),
		failed:         r.Counter("tafpgad_jobs_failed_total", "Jobs that finished with an error."),
		cancelled:      r.Counter("tafpgad_jobs_cancelled_total", "Jobs cancelled before completion."),
		recovered:      r.Counter("tafpgad_jobs_recovered_total", "Unfinished jobs re-enqueued from the state dir at startup."),
		restored:       r.Counter("tafpgad_jobs_restored_total", "Finished jobs restored (with results) from the state dir at startup."),
		journalRecords: r.Counter("tafpgad_journal_records_total", "Job state files written to the state dir."),
		journalErrors:  r.Counter("tafpgad_journal_errors_total", "State-dir writes, deletions or listings that failed and state files that did not parse (durability degraded)."),
		queuedGauge:    r.Gauge("tafpgad_jobs_queued", "Jobs waiting in the FIFO queue."),
		runningGauge:   r.Gauge("tafpgad_jobs_running", "Jobs currently executing."),
		duration:       r.Histogram("tafpgad_job_duration_seconds", "Wall time of finished jobs, start to finish.", nil),
	}
}

// Manager owns the queue, the worker pool, and the job store.
type Manager struct {
	run RunFunc

	workers  int
	maxQueue int
	ttl      time.Duration
	now      func() time.Time
	m        *metrics
	journal  *Journal

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*job
	jobs     map[string]*job
	byKey    map[string]*job // queued or running jobs, by canonical spec key
	nextID   int
	running  int
	restored int
	requeued int
	draining bool
	closed   bool
	wg       sync.WaitGroup
}

// New starts a manager with its worker pool. When Options.Journal is set,
// its state directory is restored first: finished jobs come back with their
// results, unfinished jobs are re-enqueued ahead of new traffic.
func New(run RunFunc, o Options) *Manager {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.TTL <= 0 {
		o.TTL = 15 * time.Minute
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		run:        run,
		workers:    o.Workers,
		maxQueue:   o.MaxQueue,
		ttl:        o.TTL,
		now:        o.Now,
		m:          newMetrics(o.Registry),
		journal:    o.Journal,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*job{},
		byKey:      map[string]*job{},
	}
	m.cond = sync.NewCond(&m.mu)
	if m.journal != nil {
		m.restore()
	}
	m.wg.Add(o.Workers)
	for i := 0; i < o.Workers; i++ {
		go m.worker()
	}
	return m
}

// RecoveryStats reports what the restore at New rebuilt: finished jobs
// restored with results, and unfinished jobs re-enqueued.
func (m *Manager) RecoveryStats() (restored, requeued int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.restored, m.requeued
}

// Submit validates and enqueues a spec. When an identical spec (by
// canonical key) is already queued or running, the submission coalesces
// onto that job — the returned View is the existing job and deduped is
// true. Finished jobs do not dedup: re-running them is the flow cache's
// problem, and it makes re-runs cheap rather than impossible.
func (m *Manager) Submit(spec Spec) (View, bool, error) {
	if err := spec.Validate(); err != nil {
		return View{}, false, err
	}
	key := spec.Key()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining || m.closed {
		return View{}, false, ErrDraining
	}
	m.evictExpiredLocked()
	if j, ok := m.byKey[key]; ok {
		m.m.submitted.Inc()
		m.m.submittedKind(spec.Kind)
		m.m.deduped.Inc()
		return m.viewLocked(j), true, nil
	}
	if len(m.queue) >= m.maxQueue {
		return View{}, false, ErrQueueFull
	}
	m.nextID++
	j := &job{
		id:      fmt.Sprintf("j-%06d", m.nextID),
		spec:    spec,
		key:     key,
		state:   StateQueued,
		created: m.now(),
	}
	m.jobs[j.id] = j
	m.byKey[key] = j
	m.queue = append(m.queue, j)
	m.m.submitted.Inc()
	m.m.submittedKind(spec.Kind)
	m.m.queuedGauge.Set(float64(len(m.queue)))
	m.persist(j.id+specSuffix, specRecord{ID: j.id, Spec: spec, Created: j.created})
	m.emitLocked(j, Event{Type: EventState, State: StateQueued})
	m.cond.Signal()
	return m.viewLocked(j), false, nil
}

// Get returns a job's view.
func (m *Manager) Get(id string) (View, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return View{}, false
	}
	return m.viewLocked(j), true
}

// ListState returns the stored jobs in one lifecycle state (all states
// when s is empty), oldest first, without results. Operators and load
// generators use it to ask only for, say, the running jobs instead of
// paging the full store.
func (m *Manager) ListState(s State) []View {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]View, 0, len(m.jobs))
	for _, j := range m.jobs {
		if s != "" && j.state != s {
			continue
		}
		v := m.viewLocked(j)
		v.Result = nil
		out = append(out, v)
	}
	// Job IDs are zero-padded sequence numbers: lexicographic = creation
	// order.
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Cancel stops a job: a queued job is removed from the queue immediately, a
// running job has its context cancelled and
// transitions when the runner observes it (between Algorithm-1 iterations).
// Cancelling a finished job returns ErrFinished.
func (m *Manager) Cancel(id string) (View, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return View{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		for i, q := range m.queue {
			if q == j {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				break
			}
		}
		m.m.queuedGauge.Set(float64(len(m.queue)))
		j.cancelRequested = true
		m.finishLocked(j, StateCancelled, nil, "cancelled while queued")
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	default:
		return m.viewLocked(j), ErrFinished
	}
	return m.viewLocked(j), nil
}

// Subscribe returns the job's event history and a live channel for events
// to come. For a finished job the channel arrives closed. The returned
// cancel func must be called to release the subscription.
func (m *Manager) Subscribe(id string) ([]Event, <-chan Event, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, nil, ErrNotFound
	}
	ch := make(chan Event, 64)
	if j.state.Terminal() {
		close(ch)
		return m.finishedHistoryLocked(j), ch, func() {}, nil
	}
	history := append([]Event(nil), j.events...)
	if j.subs == nil {
		j.subs = map[chan Event]struct{}{}
	}
	j.subs[ch] = struct{}{}
	cancel := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
	}
	return history, ch, cancel, nil
}

// Drain stops intake and waits for the queue and all running jobs to
// finish. If ctx expires first, in-flight jobs are
// hard-cancelled (their contexts fire, Algorithm 1 stops at the next
// iteration boundary) and Drain waits for the workers to observe it.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		m.mu.Lock()
		defer m.mu.Unlock()
		for len(m.queue) > 0 || m.running > 0 {
			m.cond.Wait()
		}
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		m.baseCancel() // hard-cancel stragglers, then wait for them
		<-done
	}
	m.Close()
	return err
}

// Close terminates the worker pool without waiting for queued work: running
// jobs are hard-cancelled and finish as cancelled at their next context
// check (Drain calls Close only after everything finishes, so a graceful
// stop cancels nothing). Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.baseCancel()
	m.wg.Wait()
}

// worker claims queued jobs FIFO and executes them.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for !m.closed && len(m.queue) == 0 {
			m.cond.Wait()
		}
		if len(m.queue) == 0 { // closed with an empty queue
			m.mu.Unlock()
			return
		}
		j := m.queue[0]
		m.queue = m.queue[1:]
		m.m.queuedGauge.Set(float64(len(m.queue)))
		jctx, cancel := context.WithCancel(m.baseCtx)
		j.cancel = cancel
		j.state = StateRunning
		j.started = m.now()
		m.running++
		m.m.runningGauge.Set(float64(m.running))
		m.emitLocked(j, Event{Type: EventState, State: StateRunning})
		m.mu.Unlock()

		emit := func(e Event) {
			m.mu.Lock()
			defer m.mu.Unlock()
			e.Type = EventProgress
			m.emitLocked(j, e)
		}
		result, err := m.run(jctx, j.spec, emit)
		cancel()

		m.mu.Lock()
		m.running--
		m.m.runningGauge.Set(float64(m.running))
		switch {
		case err == nil:
			m.finishLocked(j, StateDone, result, "")
		case j.cancelRequested || errors.Is(err, context.Canceled):
			m.finishLocked(j, StateCancelled, nil, err.Error())
		default:
			m.finishLocked(j, StateFailed, nil, err.Error())
		}
		// Wake Drain (and idle workers, harmlessly).
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// finishLocked moves a job to a terminal state: records the outcome, drops
// the dedup slot, updates metrics, emits the final event, marshals the
// event history once, writes the finish file (with the marshaled result,
// so a restart serves it byte-identical without recompute), and closes
// every subscriber. Caller holds m.mu.
func (m *Manager) finishLocked(j *job, s State, result any, errMsg string) {
	j.state = s
	j.result = result
	j.errMsg = errMsg
	j.finished = m.now()
	if j.started.IsZero() {
		j.started = j.finished // cancelled while queued: zero duration
	}
	if m.byKey[j.key] == j {
		delete(m.byKey, j.key)
	}
	switch s {
	case StateDone:
		m.m.completed.Inc()
	case StateFailed:
		m.m.failed.Inc()
	case StateCancelled:
		m.m.cancelled.Inc()
	}
	m.m.duration.Observe(j.finished.Sub(j.started).Seconds())
	m.emitLocked(j, Event{Type: EventState, State: s, Error: errMsg})
	j.key, j.cancel = "", nil
	// A history that does not marshal (a non-finite float) stays events,
	// and no finish file is written: that job re-runs after a restart.
	if b, err := json.Marshal(j.events); err == nil {
		j.history, j.events = b, nil
	}
	switch {
	case m.journal == nil:
	case j.history == nil:
		m.m.journalErrors.Inc()
	default:
		rec := doneRecord{
			ID: j.id, State: s, Started: j.started, Finished: j.finished,
			Recovered: j.recovered, Error: errMsg, Events: j.history,
		}
		if result != nil {
			// A result that does not marshal is stored as none.
			rec.Result, _ = json.Marshal(result)
		}
		if m.persist(j.id+doneSuffix, rec) {
			j.history = nil // the finish file holds it
		}
	}
	for ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// emitLocked appends an event to the job's history and fans it out to
// subscribers. A subscriber that cannot keep up (full channel) loses the
// event from its stream but never blocks the worker; the history keeps
// everything. Caller holds m.mu.
func (m *Manager) emitLocked(j *job, e Event) {
	e.Seq = len(j.events) + 1
	j.events = append(j.events, e)
	for ch := range j.subs {
		select {
		case ch <- e:
		default:
		}
	}
}

// persist writes one state file, counting failures instead of surfacing
// them: the state dir is the durability layer, not the serving path, and a
// full disk must degrade recovery, not take the API down. It reports
// whether the file was written.
func (m *Manager) persist(name string, v any) bool {
	if m.journal == nil {
		return false
	}
	if err := m.journal.write(name, v); err != nil {
		m.m.journalErrors.Inc()
		return false
	}
	m.m.journalRecords.Inc()
	return true
}

// finishedHistoryLocked returns a finished job's event history: from
// memory when the job holds it, otherwise from its finish file. A finish
// file that can no longer be read counts as a journal error and yields no
// history. Caller holds m.mu.
func (m *Manager) finishedHistoryLocked(j *job) []Event {
	var events []Event
	switch {
	case j.history != nil:
		json.Unmarshal(j.history, &events) // marshaled from []Event at finish
	case j.events != nil || m.journal == nil:
		events = append(events, j.events...)
	default:
		var err error
		if events, err = m.journal.readEvents(j.id); err != nil {
			m.m.journalErrors.Inc()
		}
	}
	return events
}

// evictExpiredLocked drops finished jobs older than the TTL, closing any
// subscriber channel still attached so no NDJSON stream hangs on an evicted
// job, and deletes their state files. It returns how many it dropped.
// Caller holds m.mu.
func (m *Manager) evictExpiredLocked() (evicted int) {
	cutoff := m.now().Add(-m.ttl)
	for id, j := range m.jobs {
		if j.state.Terminal() && j.finished.Before(cutoff) {
			for ch := range j.subs {
				close(ch)
				delete(j.subs, ch)
			}
			delete(m.jobs, id)
			evicted++
			if m.journal != nil && m.journal.remove(id) != nil {
				m.m.journalErrors.Inc()
			}
		}
	}
	return evicted
}

// EvictExpired runs a TTL sweep immediately (the server's janitor; Submit
// also sweeps lazily).
func (m *Manager) EvictExpired() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictExpiredLocked()
}

// restore rebuilds the store from the state directory: finished jobs come
// back with their views and histories (results as the bytes they were
// served with), TTL-expired ones are deleted, and unfinished jobs re-enter
// the queue in ID order — the content-keyed flow cache makes the re-run
// cheap. Runs before the workers start.
func (m *Manager) restore() {
	loaded, maxID, bad := m.journal.load()
	m.m.journalErrors.Add(float64(bad))
	m.nextID = maxID
	for _, j := range loaded {
		m.jobs[j.id] = j
		if j.state.Terminal() {
			m.restored++
			continue
		}
		j.recovered = true
		if _, dup := m.byKey[j.key]; dup {
			// Two unfinished jobs with one key cannot both run (the dedup
			// invariant); keep the older, fail the newer.
			m.finishLocked(j, StateFailed, nil, "duplicate of a recovered job")
			continue
		}
		j.state = StateQueued
		m.byKey[j.key] = j
		m.queue = append(m.queue, j)
		m.requeued++
		m.emitLocked(j, Event{Type: EventState, State: StateQueued})
		m.emitLocked(j, Event{Type: EventRecovered})
	}
	m.restored -= m.evictExpiredLocked()
	m.m.restored.Add(float64(m.restored))
	m.m.recovered.Add(float64(m.requeued))
	m.m.queuedGauge.Set(float64(len(m.queue)))
}

// viewLocked renders a job. Caller holds m.mu.
func (m *Manager) viewLocked(j *job) View {
	v := View{
		ID: j.id, Spec: j.spec, State: j.state, Created: j.created,
		Recovered: j.recovered, Result: j.result, Error: j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}
