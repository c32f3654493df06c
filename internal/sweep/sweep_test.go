package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// withSweep installs def as the default tracer and sets the pool width
// for the duration of one test, restoring both afterwards.
func withSweep(t *testing.T, def trace.Tracer, width int) {
	t.Helper()
	prevWorkers, prevTracer := Workers(), trace.Default()
	trace.SetDefault(def)
	SetWorkers(width)
	t.Cleanup(func() {
		SetWorkers(prevWorkers)
		trace.SetDefault(prevTracer)
	})
}

// logSink records its stream; its forks are logSinks too, and Join
// appends a child's stream, so the parent's log shows the join order.
type logSink struct{ events []trace.Event }

func (s *logSink) Emit(e trace.Event)      { s.events = append(s.events, e) }
func (s *logSink) Fork() trace.Tracer      { return &logSink{} }
func (s *logSink) Join(child trace.Tracer) { s.events = append(s.events, child.(*logSink).events...) }

func (s *logSink) args() (out []int64) {
	for _, e := range s.events {
		out = append(out, e.Arg)
	}
	return out
}

// simJob runs one small engine per job, tracing into tr (or, when tr
// is nil, into the ambient default through sim.New).
func simJob(i int, tr trace.Tracer) error {
	eng := sim.New(int64(i))
	if tr != nil {
		tr.Emit(trace.Event{Kind: trace.KRunBegin, Proc: trace.EngineProc, Cat: "sim", Name: "run", Arg: int64(i)})
		eng.SetTracer(tr)
	}
	for k := 0; k < 2; k++ {
		eng.Go(fmt.Sprintf("p%d", k), func(p *sim.Proc) { p.Advance(sim.Duration(10 * (i + k + 1))) })
	}
	return eng.Run()
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	for _, tc := range []struct {
		name string
		def  trace.Tracer
	}{
		{"untraced", nil},
		{"forkable", trace.NewDigest()},
		{"not forkable", trace.NewBuffer()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withSweep(t, tc.def, 4)
			errAt := map[int]error{2: errors.New("job 2"), 5: errors.New("job 5")}
			err := Run(8, func(i int, tr trace.Tracer) error {
				if err := simJob(i, tr); err != nil {
					return err
				}
				return errAt[i]
			})
			if err != errAt[2] {
				t.Errorf("Run returned %v, want the lowest-indexed error %v", err, errAt[2])
			}
		})
	}
}

// TestRunJoinsInIndexOrder makes the jobs finish in reverse index order
// and checks the forks still fold into the default in index order.
func TestRunJoinsInIndexOrder(t *testing.T) {
	const n = 6
	sink := &logSink{}
	withSweep(t, trace.Utiled(sink), n)
	done := make([]chan struct{}, n+1)
	for i := range done {
		done[i] = make(chan struct{})
	}
	close(done[n])
	err := Run(n, func(i int, tr trace.Tracer) error {
		defer close(done[i])
		if !trace.WantsUtil(tr) {
			t.Errorf("job %d: fork lost the default chain's capabilities", i)
		}
		<-done[i+1] // job i finishes only after job i+1 has
		tr.Emit(trace.Event{Kind: trace.KRunBegin, Arg: int64(i)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sink.args(), []int64{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("joined stream = %v, want %v", got, want)
	}
}

// TestRunNonForkableIsSequential: a default sink that cannot fork sees
// exactly the stream of running the jobs one after another on the
// caller, whatever the pool width.
func TestRunNonForkableIsSequential(t *testing.T) {
	want := trace.NewBuffer()
	withSweep(t, want, 1)
	for i := 0; i < 5; i++ {
		if err := simJob(i, nil); err != nil {
			t.Fatal(err)
		}
	}

	got := trace.NewBuffer()
	withSweep(t, got, 4)
	var order []int
	err := Run(5, func(i int, tr trace.Tracer) error {
		if tr != nil {
			t.Errorf("job %d got a tracer; the ambient default must carry the stream", i)
		}
		order = append(order, i)
		return simJob(i, tr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("jobs ran in order %v", order)
	}
	if got.Len() == 0 || !reflect.DeepEqual(got.Events(), want.Events()) {
		t.Errorf("non-forkable default saw %d events, want the %d-event sequential stream", got.Len(), want.Len())
	}
}

// TestRunRestoresDefault: jobs see no default tracer while the pool
// runs, and the default is back in place when Run returns, on the
// error path too.
func TestRunRestoresDefault(t *testing.T) {
	for _, width := range []int{1, 3} {
		def := trace.NewDigest()
		withSweep(t, def, width)
		fail := errors.New("fail")
		err := Run(4, func(i int, tr trace.Tracer) error {
			if trace.Default() != nil {
				t.Errorf("width %d job %d: default tracer still installed during the sweep", width, i)
			}
			if i == 1 {
				return fail
			}
			return simJob(i, tr)
		})
		if err != fail {
			t.Errorf("width %d: Run returned %v, want %v", width, err, fail)
		}
		if trace.Default() != trace.Tracer(def) {
			t.Errorf("width %d: default tracer not restored after Run", width)
		}
		if def.Events() == 0 {
			t.Errorf("width %d: the joined default saw no events", width)
		}
	}
}
