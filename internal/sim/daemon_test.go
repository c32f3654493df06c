package sim

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestDaemonDoesNotBlockTermination(t *testing.T) {
	e := New(1)
	var mb Mailbox
	worked := 0
	e.Go("worker", func(p *Proc) {
		p.SetDaemon(true)
		for {
			mb.Recv(p)
			worked++
		}
	})
	e.Go("main", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Advance(10)
			mb.Send(i)
		}
		p.Advance(10)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("run with parked daemon must terminate cleanly: %v", err)
	}
	if worked != 3 {
		t.Errorf("daemon processed %d tasks, want 3", worked)
	}
}

func TestNonDaemonStillDeadlocks(t *testing.T) {
	e := New(1)
	var q WaitQueue
	e.Go("daemon", func(p *Proc) {
		p.SetDaemon(true)
		q.Wait(p, "idle")
	})
	e.Go("stuck", func(p *Proc) {
		q.Wait(p, "stuck-forever")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("a parked non-daemon must still be a deadlock")
	}
}

func TestDaemonToggleBalanced(t *testing.T) {
	e := New(1)
	e.Go("p", func(p *Proc) {
		p.SetDaemon(true)
		p.SetDaemon(true) // idempotent
		p.SetDaemon(false)
		p.Advance(5)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.nDaemon != 0 {
		t.Errorf("daemon count = %d after toggles, want 0", e.nDaemon)
	}
}

func TestDaemonFinishingDecrementsCount(t *testing.T) {
	e := New(1)
	e.Go("d", func(p *Proc) {
		p.SetDaemon(true)
		p.Advance(1) // finishes normally
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.nDaemon != 0 || e.nLive != 0 {
		t.Errorf("counters after daemon exit: live=%d daemon=%d", e.nLive, e.nDaemon)
	}
}

// settleGoroutines waits up to a second for goroutines that are past
// their last channel operation to exit, returning the count once it is
// at most want (or the final count).
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > want; i++ {
		time.Sleep(time.Millisecond) //upcvet:wallclock -- host-side wait for exiting goroutines; reads no simulation state
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunReapsParkedDaemons: daemons still parked when Run returns must
// not outlive the run. Their goroutines unwind (deferred calls run, the
// body never resumes), so repeated runs leave the goroutine count flat.
func TestRunReapsParkedDaemons(t *testing.T) {
	before := runtime.NumGoroutine()
	unwound := 0
	for i := 0; i < 10; i++ {
		e := New(1)
		var q WaitQueue
		for j := 0; j < 4; j++ {
			e.Go("daemon", func(p *Proc) {
				p.SetDaemon(true)
				defer func() { unwound++ }()
				q.Wait(p, "idle")
				t.Error("a reaped daemon must not resume its body")
			})
		}
		e.Go("main", func(p *Proc) { p.Advance(5) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if e.nLive != 0 || e.nDaemon != 0 {
			t.Fatalf("counters after reaping: live=%d daemon=%d", e.nLive, e.nDaemon)
		}
	}
	if unwound != 40 {
		t.Errorf("%d daemons unwound, want 40", unwound)
	}
	if after := settleGoroutines(before); after > before {
		t.Errorf("goroutines: %d before, %d after 10 runs with parked daemons", before, after)
	}
}

// TestReapEmitsNoTrace: reaping is invisible in the event stream — the
// run's last event is the main process's exit, and the reaped daemon
// never records one.
func TestReapEmitsNoTrace(t *testing.T) {
	col := &trace.Buffer{}
	prev := trace.Default()
	trace.SetDefault(col)
	defer trace.SetDefault(prev)
	e := New(1)
	var q WaitQueue
	d := e.Go("daemon", func(p *Proc) {
		p.SetDaemon(true)
		q.Wait(p, "idle")
	})
	e.Go("main", func(p *Proc) { p.Advance(5) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !d.finished {
		t.Fatal("daemon still live after Run")
	}
	evs := col.Events()
	if last := evs[len(evs)-1]; last.Kind != trace.KProcExit || last.Name != "main" {
		t.Errorf("last event is %v %q, want main's exit", last.Kind, last.Name)
	}
	for _, ev := range evs {
		if ev.Kind == trace.KProcExit && ev.Name == "daemon" {
			t.Error("the reaped daemon recorded an exit event")
		}
	}
}

// TestShardGroupReapsParkedDaemons: the sharded driver releases its
// lanes' parked daemons the same way.
func TestShardGroupReapsParkedDaemons(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		g := NewShardGroup(1, 2, nil)
		for l := 0; l < 2; l++ {
			var q WaitQueue
			g.Lane(l).Go("daemon", func(p *Proc) {
				p.SetDaemon(true)
				q.Wait(p, "idle")
			})
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if after := settleGoroutines(before); after > before {
		t.Errorf("goroutines: %d before, %d after 5 sharded runs with parked daemons", before, after)
	}
}
