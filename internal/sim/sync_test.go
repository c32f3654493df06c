package sim

import (
	"fmt"
	"testing"
)

func TestMutexExclusionAndFIFO(t *testing.T) {
	e := New(1)
	var mu Mutex
	var order []string
	inside := 0
	for i := 0; i < 4; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			mu.Lock(p)
			inside++
			if inside != 1 {
				t.Errorf("mutual exclusion violated: %d inside", inside)
			}
			order = append(order, p.Name())
			p.Advance(10)
			inside--
			mu.Unlock(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[w0 w1 w2 w3]"
	if fmt.Sprint(order) != want {
		t.Errorf("lock handoff order = %v, want %s", order, want)
	}
}

func TestMutexTryLock(t *testing.T) {
	e := New(1)
	var mu Mutex
	e.Go("a", func(p *Proc) {
		if !mu.TryLock(p) {
			t.Error("TryLock on free mutex must succeed")
		}
		p.Advance(50)
		mu.Unlock(p)
	})
	e.Go("b", func(p *Proc) {
		p.Advance(10)
		if mu.TryLock(p) {
			t.Error("TryLock on held mutex must fail")
		}
		p.Advance(100)
		if !mu.TryLock(p) {
			t.Error("TryLock after release must succeed")
		}
		mu.Unlock(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMutexUnlockByNonHolderPanics(t *testing.T) {
	e := New(1)
	var mu Mutex
	e.Go("a", func(p *Proc) { mu.Lock(p) })
	e.Go("b", func(p *Proc) {
		p.Advance(1)
		mu.Unlock(p) // not the holder
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unlock by non-holder")
		}
	}()
	e.Run()
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := New(1)
	sem := NewSemaphore(2)
	active, peak := 0, 0
	for i := 0; i < 6; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			sem.Acquire(p)
			active++
			if active > peak {
				peak = active
			}
			p.Advance(10)
			active--
			sem.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if peak != 2 {
		t.Errorf("peak concurrency = %d, want 2", peak)
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	e := New(1)
	b := NewBarrier(3)
	var releases []Time
	for i, d := range []Duration{5, 20, 50} {
		dd := d
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Advance(dd)
			b.Wait(p)
			releases = append(releases, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range releases {
		if r != 50 {
			t.Errorf("release at %v, want 50 (latest arrival)", r)
		}
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	e := New(1)
	b := NewBarrier(2)
	counts := [2]int{}
	for i := 0; i < 2; i++ {
		idx := i
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for round := 0; round < 5; round++ {
				p.Advance(Duration(1 + idx*3))
				b.Wait(p)
				counts[idx]++
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if counts[0] != 5 || counts[1] != 5 {
		t.Errorf("rounds completed = %v, want [5 5]", counts)
	}
}

func TestMailboxFIFOAndBlocking(t *testing.T) {
	e := New(1)
	var mb Mailbox
	var got []int
	var recvTime Time
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Recv(p).(int))
		}
		recvTime = p.Now()
	})
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Advance(10)
			mb.Send(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2]" {
		t.Errorf("messages = %v, want [0 1 2]", got)
	}
	if recvTime != 30 {
		t.Errorf("last receive at %v, want 30", recvTime)
	}
}

func TestMailboxTryRecv(t *testing.T) {
	var mb Mailbox
	if _, ok := mb.TryRecv(); ok {
		t.Error("TryRecv on empty mailbox must fail")
	}
	mb.Send("x")
	v, ok := mb.TryRecv()
	if !ok || v != "x" {
		t.Errorf("TryRecv = %v,%v; want x,true", v, ok)
	}
	if mb.Len() != 0 {
		t.Errorf("Len = %d after drain", mb.Len())
	}
}

func TestEventWaitBeforeAndAfterFire(t *testing.T) {
	e := New(1)
	var ev Event
	var wokeAt Time = -1
	e.Go("waiter", func(p *Proc) {
		ev.Wait(p)
		wokeAt = p.Now()
		ev.Wait(p) // already fired: must not block
		ev.Fire()  // double fire: no-op
	})
	e.Go("firer", func(p *Proc) {
		p.Advance(33)
		ev.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 33 {
		t.Errorf("waiter woke at %v, want 33", wokeAt)
	}
	if !ev.Fired() {
		t.Error("event should report fired")
	}
}

// TestRendezvousReleasesAfterCost: without a liveness predicate a
// generation releases at the last arrival plus the cost, observed once
// per arrival and once per release, and the next generation reuses it.
func TestRendezvousReleasesAfterCost(t *testing.T) {
	e := New(1)
	var seen []string
	r := NewRendezvous(e, 2, 7, nil, func(rank int, seq int64, release bool) {
		seen = append(seen, fmt.Sprintf("%d/%d/%v", rank, seq, release))
	})
	var releases []Time
	for i, d := range []Duration{5, 20} {
		i, d := i, d
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for gen := 0; gen < 2; gen++ {
				p.Advance(d)
				r.Arrive(i).Wait(p)
				releases = append(releases, p.Now())
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{27, 27, 54, 54}; fmt.Sprint(releases) != fmt.Sprint(want) {
		t.Errorf("releases at %v, want %v", releases, want)
	}
	if got := fmt.Sprint(seen); got != "[0/0/false 1/0/false 1/0/true 0/1/false 1/1/false 1/1/true]" {
		t.Errorf("observed %s", got)
	}
}

// TestRendezvousSkipsDeadRanks: with a liveness predicate a dead rank
// is not waited for, and a rank dying mid-generation completes it on
// Recheck.
func TestRendezvousSkipsDeadRanks(t *testing.T) {
	e := New(1)
	dead := []bool{false, false, true}
	live := func(rank int) bool { return !dead[rank] }
	r := NewRendezvous(e, 3, 0, live, nil)
	c := NewCollective(e, 3, live, nil)
	var sum any
	e.Go("p0", func(p *Proc) {
		r.Arrive(0).Wait(p) // released by rank 1's death below
		s := c.Join(0, 4, 0, func(vals []any) any {
			n := 0
			for _, v := range vals {
				if v != nil {
					n += v.(int)
				}
			}
			return n
		})
		s.Done().Wait(p)
		sum = s.Result()
	})
	e.Go("p1", func(p *Proc) {
		p.Advance(10)
		dead[1] = true
		r.Recheck(1)
		c.Recheck(nil, 1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 4 {
		t.Errorf("collective over the lone survivor = %v, want 4", sum)
	}
	if r.Gen() != 1 {
		t.Errorf("generation = %d, want 1", r.Gen())
	}
}
