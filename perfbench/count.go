package main

import (
	"repro/internal/trace"
)

// commClasses are the path classes of trace.CatComm instants, in the
// order their per-class metrics are reported.
var commClasses = [...]string{trace.ClassSelf, trace.ClassPSHM, trace.ClassLoopback, trace.ClassNetwork}

// eventCats are the event categories reported as events.<cat>; any
// other category lands in events.other, the last slot of counter.cats.
var eventCats = [...]string{
	"sim", "fabric", "upc", "subthread", "mpi", "uts", "ft",
	trace.CatComm, trace.CatLink, trace.CatEdge, "fault",
}

// catIndex maps an event category to its slot in counter.cats.
func catIndex(cat string) int {
	for i := range eventCats {
		if eventCats[i] == cat {
			return i
		}
	}
	return len(eventCats)
}

// counter is a trace sink that tallies the event stream of one sweep
// job: events per category, proc parks (engine handoffs), transfers and
// bytes per comm path class, and the virtual makespan summed over the
// runs it saw. It implements none of trace's capability interfaces
// (clock, util, edge), so installing it changes nothing the engines
// decide to emit: beside a bare sink it sees exactly that sink's
// stream, and teed beside the session sinks it leaves theirs alone.
type counter struct {
	cats    [len(eventCats) + 1]int64 // per eventCats entry, then other
	total   int64
	parks   int64
	msgs    [len(commClasses)]int64
	bytes   [len(commClasses)]int64
	virtual int64 // summed final times of completed runs
	cur     int64 // latest time in the current run
}

func newCounter() *counter { return &counter{} }

// Emit tallies one event.
func (c *counter) Emit(e trace.Event) {
	c.total++
	c.cats[catIndex(e.Cat)]++
	switch e.Kind {
	case trace.KRunBegin:
		c.virtual += c.cur
		c.cur = 0
	case trace.KProcPark:
		c.parks++
	case trace.KInstant:
		if e.Cat == trace.CatComm {
			for i := range commClasses {
				if e.Aux == commClasses[i] {
					c.msgs[i]++
					c.bytes[i] += e.Arg
				}
			}
		}
	}
	if e.Time > c.cur {
		c.cur = e.Time
	}
}

// virtualNS reports the summed virtual makespan, including the open run.
func (c *counter) virtualNS() int64 { return c.virtual + c.cur }

// add folds o's tallies into c (sweep jobs count into private counters
// that are merged after the sweep, in index order).
func (c *counter) add(o *counter) {
	c.total += o.total
	for i := range c.cats {
		c.cats[i] += o.cats[i]
	}
	c.parks += o.parks
	for i := range c.msgs {
		c.msgs[i] += o.msgs[i]
		c.bytes[i] += o.bytes[i]
	}
	c.virtual += o.virtualNS()
}

// catCount reports events.<cat> for one of eventCats, or for "other".
func (c *counter) catCount(cat string) int64 { return c.cats[catIndex(cat)] }

// equal reports whether two counters tallied the same stream.
func (c *counter) equal(o *counter) bool {
	return c.cats == o.cats && c.total == o.total && c.parks == o.parks &&
		c.msgs == o.msgs && c.bytes == o.bytes && c.virtualNS() == o.virtualNS()
}
