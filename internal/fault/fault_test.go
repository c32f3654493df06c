package fault

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

func testCluster(seed int64) (*sim.Engine, *fabric.Cluster) {
	e := sim.New(seed)
	return e, fabric.NewCluster(e, topo.Lehman(), fabric.QDRInfiniBand())
}

func TestActionDefaultsToAnyPair(t *testing.T) {
	s, err := Parse([]byte(`{"actions":[{"op":"drop","at_s":0,"prob":0.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if a := s.Actions[0]; a.Src != -1 || a.Dst != -1 {
		t.Errorf("unnamed src/dst = %d/%d, want -1/-1 (any)", a.Src, a.Dst)
	}
	s, err = Parse([]byte(`{"actions":[{"op":"drop","at_s":0,"prob":0.5,"src":0,"dst":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if a := s.Actions[0]; a.Src != 0 || a.Dst != 2 {
		t.Errorf("named src/dst = %d/%d, want 0/2", a.Src, a.Dst)
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := []string{
		`{"actions":[{"op":"warp","at_s":0}]}`,                                           // unknown op
		`{"actions":[{"op":"crash","at_s":-1,"node":0}]}`,                                // negative time
		`{"actions":[{"op":"crash","at_s":2,"until_s":1,"node":0}]}`,                     // until before at
		`{"actions":[{"op":"crash","at_s":0,"node":-2}]}`,                                // bad node
		`{"actions":[{"op":"degrade","at_s":0,"factor":0.5}]}`,                           // missing link
		`{"actions":[{"op":"degrade","at_s":0,"link":"nic-tx0","factor":1.5}]}`,          // factor >= 1
		`{"actions":[{"op":"flap","at_s":0,"link":"nic-tx0","period_s":0.01}]}`,          // flap without end
		`{"actions":[{"op":"flap","at_s":0,"until_s":1,"link":"nic-tx0"}]}`,              // missing period
		`{"actions":[{"op":"drop","at_s":0,"prob":0}]}`,                                  // prob out of range
		`{"actions":[{"op":"drop","at_s":0,"prob":1.5}]}`,                                // prob out of range
		`{"actions":[{"op":"delay","at_s":0,"prob":0.5}]}`,                               // missing extra
		`{"actions":[{"op":"crash","at_s":0,"node":0},{"op":"drop","at_s":0,"prob":2}]}`, // second action bad
	}
	for _, src := range bad {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("schedule %s passed validation", src)
		}
	}
	good := `{"name":"mix","actions":[
		{"op":"crash","at_s":0.5,"until_s":1.0,"node":1},
		{"op":"degrade","at_s":0,"until_s":2,"link":"nic-tx0","factor":0.25},
		{"op":"flap","at_s":0,"until_s":1,"link":"nic-rx1","period_s":0.05},
		{"op":"drop","at_s":0,"prob":0.1,"src":0,"dst":1},
		{"op":"delay","at_s":0,"prob":0.2,"extra_s":0.0001},
		{"op":"duplicate","at_s":0,"prob":0.05}]}`
	if _, err := Parse([]byte(good)); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestInstallRejectsUnknownTargets(t *testing.T) {
	_, c := testCluster(1)
	if _, err := Install(c, &Schedule{Actions: []Action{
		{Op: OpCrash, At: 1, Node: 99}}}); err == nil {
		t.Error("crash of a node outside the machine must fail Install")
	}
	if _, err := Install(c, &Schedule{Actions: []Action{
		{Op: OpDegrade, At: 1, Link: "no-such-link", Factor: 0.5}}}); err == nil {
		t.Error("degrade of an unknown link must fail Install")
	}
}

func TestCrashAndReviveTimeline(t *testing.T) {
	e, c := testCluster(1)
	inj, err := Install(c, &Schedule{Actions: []Action{
		{Op: OpCrash, At: 0.001, Until: 0.002, Node: 1, Src: -1, Dst: -1}}})
	if err != nil {
		t.Fatal(err)
	}
	if c.FaultModel() == nil {
		t.Fatal("Install did not register the fault model")
	}
	type sample struct {
		at   sim.Duration
		want bool
	}
	for _, s := range []sample{
		{500 * sim.Microsecond, false},
		{1500 * sim.Microsecond, true},
		{2500 * sim.Microsecond, false},
	} {
		s := s
		e.After(s.at, func() {
			if got := inj.NodeDown(1); got != s.want {
				t.Errorf("NodeDown(1) at %v = %v, want %v", s.at, got, s.want)
			}
			if got := c.NodeDown(1); got != s.want {
				t.Errorf("Cluster.NodeDown(1) at %v = %v, want %v", s.at, got, s.want)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDegradeScalesAndRestores(t *testing.T) {
	e, c := testCluster(1)
	l := c.LinkByName("nic-tx0")
	base := l.Capacity()
	if _, err := Install(c, &Schedule{Actions: []Action{
		{Op: OpDegrade, At: 0.001, Until: 0.002, Link: "nic-tx0", Factor: 0.25, Src: -1, Dst: -1}}}); err != nil {
		t.Fatal(err)
	}
	e.After(1500*sim.Microsecond, func() {
		if l.Capacity() != base*0.25 {
			t.Errorf("degraded capacity = %g, want %g", l.Capacity(), base*0.25)
		}
	})
	e.After(2500*sim.Microsecond, func() {
		if l.Capacity() != base {
			t.Errorf("restored capacity = %g, want %g", l.Capacity(), base)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFlapTogglesAndEndsUp(t *testing.T) {
	e, c := testCluster(1)
	l := c.LinkByName("nic-rx1")
	if _, err := Install(c, &Schedule{Actions: []Action{
		{Op: OpFlap, At: 0.001, Until: 0.0035, Link: "nic-rx1", Period: 0.001, Src: -1, Dst: -1}}}); err != nil {
		t.Fatal(err)
	}
	// Half-cycles: down at 1ms, up at 2ms, down at 3ms, forced up at the
	// 4ms tick (past until=3.5ms).
	for _, s := range []struct {
		at   sim.Duration
		want bool
	}{
		{1500 * sim.Microsecond, true},
		{2500 * sim.Microsecond, false},
		{3200 * sim.Microsecond, true},
		{4500 * sim.Microsecond, false},
	} {
		s := s
		e.After(s.at, func() {
			if l.Down() != s.want {
				t.Errorf("link down at %v = %v, want %v", s.at, l.Down(), s.want)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if l.Down() {
		t.Error("flapped link must end the run up")
	}
}

// verdictTape records the injector's decisions for a fixed message
// sequence, exercising NodeDown-induced drops and probability draws.
func verdictTape(t *testing.T, seed int64, prob float64) []sim.MessageVerdict {
	t.Helper()
	e, c := testCluster(seed)
	_, err := Install(c, &Schedule{Actions: []Action{
		{Op: OpDrop, At: 0, Prob: prob, Src: -1, Dst: -1}}})
	if err != nil {
		t.Fatal(err)
	}
	var tape []sim.MessageVerdict
	e.Go("probe", func(p *sim.Proc) {
		fm := c.FaultModel()
		for i := 0; i < 200; i++ {
			v, _ := fm.MessageVerdict(0, 1, 8)
			tape = append(tape, v)
			p.Advance(sim.Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return tape
}

func TestDropDecisionsDeterministicUnderSeed(t *testing.T) {
	a := verdictTape(t, 42, 0.3)
	b := verdictTape(t, 42, 0.3)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("identical seed+schedule produced different drop decisions")
	}
	drops := 0
	for _, v := range a {
		if v == sim.MsgDrop {
			drops++
		}
	}
	if drops < 30 || drops > 90 {
		t.Errorf("drop rate %d/200 far from prob 0.3", drops)
	}
	if fmt.Sprint(a) == fmt.Sprint(verdictTape(t, 43, 0.3)) {
		t.Error("different seeds produced identical 200-message drop tapes")
	}
}

func TestBackoffSequence(t *testing.T) {
	rp := RetryPolicy{
		Timeout:    500 * sim.Microsecond,
		MaxRetries: 6,
		Backoff:    100 * sim.Microsecond,
		MaxBackoff: 1 * sim.Millisecond,
	}
	want := []sim.Duration{
		100 * sim.Microsecond, // after attempt 1
		200 * sim.Microsecond,
		400 * sim.Microsecond,
		800 * sim.Microsecond,
		1 * sim.Millisecond, // capped
		1 * sim.Millisecond,
	}
	for i, w := range want {
		if got := rp.BackoffFor(i + 1); got != w {
			t.Errorf("BackoffFor(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Deep retry counts must not overflow past the cap.
	if got := rp.BackoffFor(200); got != rp.MaxBackoff {
		t.Errorf("BackoffFor(200) = %v, want cap %v", got, rp.MaxBackoff)
	}
}

func TestAttemptTimeoutGrowth(t *testing.T) {
	rp := DefaultRetryPolicy()
	xfer := 50 * sim.Microsecond
	prev := sim.Duration(0)
	for try := 0; try < 12; try++ {
		got := rp.AttemptTimeout(try, xfer)
		if got < prev {
			t.Errorf("AttemptTimeout(%d) = %v shrank below %v", try, got, prev)
		}
		if got > timeoutScaleCap*rp.Timeout+2*xfer {
			t.Errorf("AttemptTimeout(%d) = %v above the scale cap", try, got)
		}
		prev = got
	}
	if got := rp.AttemptTimeout(0, xfer); got != rp.Timeout+2*xfer {
		t.Errorf("first attempt timeout = %v, want base+2*xfer = %v", got, rp.Timeout+2*xfer)
	}
}

func TestCommErrorUnwraps(t *testing.T) {
	err := error(&CommError{Op: "put", Src: 3, Dst: 7, Attempts: 7, Err: ErrTimeout})
	if !errors.Is(err, ErrTimeout) {
		t.Error("CommError must unwrap to its sentinel")
	}
	var ce *CommError
	if !errors.As(err, &ce) || ce.Attempts != 7 {
		t.Error("CommError must be retrievable via errors.As")
	}
	if errors.Is(err, ErrNodeDown) {
		t.Error("CommError must not match a different sentinel")
	}
}

func TestZeroPolicyDefaults(t *testing.T) {
	var rp RetryPolicy
	if rp.OrDefault() != DefaultRetryPolicy() {
		t.Error("OrDefault of a zero policy must be the default policy")
	}
	set := RetryPolicy{Timeout: sim.Millisecond, MaxRetries: 1, Backoff: 1, MaxBackoff: 2}
	if set.OrDefault() != set {
		t.Error("OrDefault must keep an explicit policy")
	}
}
