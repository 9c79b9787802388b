package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tafpga/internal/obs"
)

// validSpec returns a distinct valid spec per n.
func validSpec(n int) Spec {
	return Spec{Kind: KindGuardband, Benchmark: "sha", AmbientC: float64(20 + n)}
}

// stubRun is a controllable RunFunc: it counts invocations and blocks until
// release is closed (nil release = return immediately), honoring ctx.
func stubRun(runs *atomic.Int64, release <-chan struct{}) RunFunc {
	return func(ctx context.Context, spec Spec, emit func(Event)) (any, error) {
		runs.Add(1)
		emit(Event{Benchmark: spec.Benchmark, Iteration: 1, FmaxMHz: 100})
		if release != nil {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, fmt.Errorf("stub: %w", ctx.Err())
			}
		}
		return map[string]any{"ambient": spec.AmbientC}, nil
	}
}

// waitState polls until the job reaches a terminal state or the deadline.
func waitState(t *testing.T, m *Manager, id string, want State) View {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if v.State == want {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("job %s reached %s, want %s (err=%q)", id, v.State, want, v.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return View{}
}

func TestSubmitRunsFIFO(t *testing.T) {
	var runs atomic.Int64
	var mu sync.Mutex
	var order []float64
	run := func(ctx context.Context, spec Spec, emit func(Event)) (any, error) {
		runs.Add(1)
		mu.Lock()
		order = append(order, spec.AmbientC)
		mu.Unlock()
		return spec.AmbientC, nil
	}
	m := New(run, Options{Workers: 1})
	defer m.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		v, deduped, err := m.Submit(validSpec(i))
		if err != nil || deduped {
			t.Fatalf("submit %d: deduped=%t err=%v", i, deduped, err)
		}
		ids = append(ids, v.ID)
	}
	for i, id := range ids {
		v := waitState(t, m, id, StateDone)
		if v.Result != float64(20+i) {
			t.Fatalf("job %s result = %v", id, v.Result)
		}
		if v.Started == nil || v.Finished == nil {
			t.Fatalf("job %s missing timestamps: %+v", id, v)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 20 || order[1] != 21 || order[2] != 22 {
		t.Fatalf("not FIFO: %v", order)
	}
	if runs.Load() != 3 {
		t.Fatalf("runs = %d", runs.Load())
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	m := New(stubRun(&atomic.Int64{}, nil), Options{})
	defer m.Close()
	for _, s := range []Spec{
		{Kind: "nope"},
		{Kind: KindGuardband, Benchmark: "nonesuch", AmbientC: 25},
		{Kind: KindGuardband, Benchmark: "sha", AmbientC: 400},
		{Kind: KindSweep, Benchmark: "sha"},
		{Kind: KindFigure, Figure: "fig99"},
	} {
		if _, _, err := m.Submit(s); err == nil {
			t.Errorf("spec %+v must be rejected", s)
		}
	}
}

func TestDedupConcurrentIdentical(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	reg := obs.NewRegistry()
	m := New(stubRun(&runs, release), Options{Workers: 2, Registry: reg})
	defer m.Close()

	a, dedupA, err := m.Submit(validSpec(0))
	if err != nil || dedupA {
		t.Fatalf("first submit: %t %v", dedupA, err)
	}
	waitState(t, m, a.ID, StateRunning)
	b, dedupB, err := m.Submit(validSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	if !dedupB || b.ID != a.ID {
		t.Fatalf("identical spec must coalesce: deduped=%t id=%s vs %s", dedupB, b.ID, a.ID)
	}
	// A different spec must not coalesce.
	c, dedupC, err := m.Submit(validSpec(1))
	if err != nil || dedupC || c.ID == a.ID {
		t.Fatalf("distinct spec coalesced: %t %v", dedupC, err)
	}
	close(release)
	waitState(t, m, a.ID, StateDone)
	waitState(t, m, c.ID, StateDone)
	if runs.Load() != 2 {
		t.Fatalf("2 submissions of one spec + 1 distinct ran %d computations, want 2", runs.Load())
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"tafpgad_jobs_submitted_total 3",
		"tafpgad_jobs_deduped_total 1",
		"tafpgad_jobs_completed_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}

	// After completion the key is free again: a resubmission is a fresh job.
	d, dedupD, err := m.Submit(validSpec(0))
	if err != nil || dedupD || d.ID == a.ID {
		t.Fatalf("finished job must not dedup: %t %v", dedupD, err)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	defer close(release)
	m := New(stubRun(&runs, release), Options{Workers: 1})
	defer m.Close()

	running, _, err := m.Submit(validSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning)
	queued, _, err := m.Submit(validSpec(1))
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job: immediate, never runs.
	v, err := m.Cancel(queued.ID)
	if err != nil || v.State != StateCancelled {
		t.Fatalf("cancel queued: %v %s", err, v.State)
	}
	// Cancel the running job: transitions when the runner observes ctx.
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	v = waitState(t, m, running.ID, StateCancelled)
	if v.Error == "" {
		t.Fatal("cancelled running job must carry the context error")
	}
	if runs.Load() != 1 {
		t.Fatalf("cancelled queued job must not run (runs=%d)", runs.Load())
	}
	// Cancelling a finished job errors.
	if _, err := m.Cancel(running.ID); !errors.Is(err, ErrFinished) {
		t.Fatalf("want ErrFinished, got %v", err)
	}
	if _, err := m.Cancel("j-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestQueueFull(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	m := New(stubRun(&atomic.Int64{}, release), Options{Workers: 1, MaxQueue: 1})
	defer m.Close()
	first, _, err := m.Submit(validSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateRunning) // occupies the worker
	if _, _, err := m.Submit(validSpec(1)); err != nil {
		t.Fatal(err) // fills the queue slot
	}
	if _, _, err := m.Submit(validSpec(2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	// An identical spec still coalesces even with a full queue.
	if _, deduped, err := m.Submit(validSpec(1)); err != nil || !deduped {
		t.Fatalf("dedup must win over queue bound: %t %v", deduped, err)
	}
}

func TestTTLEviction(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	m := New(stubRun(&atomic.Int64{}, nil), Options{Workers: 1, TTL: time.Minute, Now: now})
	defer m.Close()
	v, _, err := m.Submit(validSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateDone)
	mu.Lock()
	clock = clock.Add(2 * time.Minute)
	mu.Unlock()
	m.EvictExpired()
	if _, ok := m.Get(v.ID); ok {
		t.Fatal("finished job must be evicted after the TTL")
	}
}

func TestSubscribeStreamsEvents(t *testing.T) {
	release := make(chan struct{})
	m := New(stubRun(&atomic.Int64{}, release), Options{Workers: 1})
	defer m.Close()
	v, _, err := m.Submit(validSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateRunning)
	history, ch, stop, err := m.Subscribe(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// queued + running (+ maybe the stub's progress event) already emitted.
	if len(history) < 2 || history[0].State != StateQueued {
		t.Fatalf("history = %+v", history)
	}
	close(release)
	var final Event
	for e := range ch {
		final = e
	}
	if final.Type != EventState || final.State != StateDone {
		t.Fatalf("stream must end with the terminal state, got %+v", final)
	}
	// Seqs across history+stream are dense from 1.
	all, _, stop2, err := m.Subscribe(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	for i, e := range all {
		if e.Seq != i+1 {
			t.Fatalf("seq %d at index %d", e.Seq, i)
		}
	}
}

func TestDrainWaitsForRunning(t *testing.T) {
	release := make(chan struct{})
	m := New(stubRun(&atomic.Int64{}, release), Options{Workers: 1})
	v, _, err := m.Submit(validSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateRunning)

	drained := make(chan error, 1)
	go func() { drained <- m.Drain(context.Background()) }()
	// Intake must be closed while draining.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, _, err := m.Submit(validSpec(1))
		if errors.Is(err, ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining manager kept accepting jobs")
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned before the running job finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v2, _ := m.Get(v.ID); v2.State != StateDone {
		t.Fatalf("drained job state = %s, want done", v2.State)
	}
}

func TestDrainDeadlineHardCancels(t *testing.T) {
	m := New(stubRun(&atomic.Int64{}, make(chan struct{})), Options{Workers: 1})
	v, _, err := m.Submit(validSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateRunning)
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.Drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if v2, _ := m.Get(v.ID); v2.State != StateCancelled {
		t.Fatalf("hard-cancelled job state = %s", v2.State)
	}
}

func TestKeyCanonicalization(t *testing.T) {
	a := Spec{Kind: KindGuardband, Benchmark: "sha", AmbientC: 25}
	b := Spec{Kind: KindGuardband, Benchmark: "sha", AmbientC: 25, Ambients: []float64{1, 2}, Figure: "fig6"}
	if a.Key() != b.Key() {
		t.Fatal("fields the kind ignores must not fragment the key")
	}
	c := Spec{Kind: KindGuardband, Benchmark: "sha", AmbientC: 26}
	if a.Key() == c.Key() {
		t.Fatal("ambient must discriminate")
	}
	s1 := Spec{Kind: KindSweep, Benchmark: "sha", Ambients: []float64{25, 45}}
	s2 := Spec{Kind: KindSweep, Benchmark: "sha", Ambients: []float64{45, 25}}
	if s1.Key() == s2.Key() {
		t.Fatal("sweep order is semantic (result order), keys must differ")
	}
}

// TestPermanentFailureFailsFast: an erroring run reaches failed once, with
// no second attempt, and its error is kept on the view.
func TestPermanentFailureFailsFast(t *testing.T) {
	var runs atomic.Int64
	run := func(ctx context.Context, spec Spec, emit func(Event)) (any, error) {
		runs.Add(1)
		return nil, errors.New("jobs: unrunnable spec")
	}
	m := New(run, Options{})
	defer m.Close()
	v, _, _ := m.Submit(validSpec(1))
	got := waitState(t, m, v.ID, StateFailed)
	if runs.Load() != 1 {
		t.Fatalf("failed job ran %d times, want 1", runs.Load())
	}
	if got.Error != "jobs: unrunnable spec" {
		t.Fatalf("error = %q", got.Error)
	}
}

// TestEvictionClosesSubscriberChannels is the regression for the TTL leak:
// eviction must close any subscriber channel still attached to the job, or
// the NDJSON stream behind it hangs forever instead of terminating.
func TestEvictionClosesSubscriberChannels(t *testing.T) {
	clock := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	now := func() time.Time { return clock }
	m := New(stubRun(&atomic.Int64{}, nil), Options{TTL: time.Minute, Now: now})
	defer m.Close()
	v, _, _ := m.Submit(validSpec(1))
	waitState(t, m, v.ID, StateDone)

	// Wedge a live subscriber onto the finished job — the shape left behind
	// when a stream attaches as the job finishes and the terminal close is
	// missed. Eviction must sweep it, not strand it.
	ch := make(chan Event, 1)
	m.mu.Lock()
	j := m.jobs[v.ID]
	j.subs = map[chan Event]struct{}{ch: {}} // a finished job holds no subscriber map

	m.mu.Unlock()

	clock = clock.Add(2 * time.Minute)
	m.EvictExpired()
	if _, ok := m.Get(v.ID); ok {
		t.Fatal("job not evicted")
	}
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("expected closed channel, got event")
		}
	default:
		t.Fatal("subscriber channel left open by eviction")
	}
}
