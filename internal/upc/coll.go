package upc

import (
	"math"

	"repro/internal/sim"
)

// collCost models a binomial-tree collective moving bytes per round:
// ceil(log2(nodes)) network rounds plus an intra-node combine.
func (rt *Runtime) collCost(bytes int64) sim.Duration {
	cond := &rt.Cluster.Conduit
	cost := 2 * cond.LoopbackLatency
	if rt.nodesUsed > 1 {
		rounds := int64(math.Ceil(math.Log2(float64(rt.nodesUsed))))
		per := cond.Latency + cond.SendOverhead + cond.RecvOverhead +
			sim.TransferTime(bytes, cond.ConnBW)
		cost += sim.Duration(rounds) * per
	}
	return cost
}

// runCollective enters thread t's next collective with contribution val;
// the last live arrival runs combine over the contributions (indexed by
// thread id; entries of crashed threads are nil) and every participant
// returns the combined result after the tree cost for the given payload
// size. Retiring threads re-check in-progress slots (Thread.Retire), so
// a crash between two threads' arrivals does not hang the survivors.
func runCollective(t *Thread, val any, bytes int64, combine func(vals []any) any) any {
	end := t.P.TraceSpanArg("upc", "collective", "", bytes)
	slot := t.rt.colls.Join(t.ID, val, t.rt.collCost(bytes), combine)
	slot.Done().Wait(t.P)
	end()
	return slot.Result()
}

// AllReduce combines one value per thread with an associative operator and
// returns the reduction on every thread (upc_all_reduce + broadcast).
// Under fault injection, threads that crashed before contributing are
// simply absent from the reduction.
func AllReduce[T any](t *Thread, val T, elemBytes int, combine func(a, b T) T) T {
	r := runCollective(t, val, int64(elemBytes), func(vals []any) any {
		var acc T
		first := true
		for _, v := range vals {
			if v == nil {
				continue // crashed before contributing
			}
			if first {
				acc, first = v.(T), false
				continue
			}
			acc = combine(acc, v.(T))
		}
		return acc
	})
	return r.(T)
}

// AllReduceSum sums one float64 per thread across all threads.
func AllReduceSum(t *Thread, v float64) float64 {
	return AllReduce(t, v, 8, func(a, b float64) float64 { return a + b })
}

// AllReduceMax takes the maximum of one float64 per thread.
func AllReduceMax(t *Thread, v float64) float64 {
	return AllReduce(t, v, 8, func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	})
}

// AllReduceSumInt sums one int64 per thread.
func AllReduceSumInt(t *Thread, v int64) int64 {
	return AllReduce(t, v, 8, func(a, b int64) int64 { return a + b })
}

// Broadcast distributes root's value to every thread (upc_all_broadcast).
// Under fault injection the root must contribute before crashing; fault
// schedules must keep the broadcast root's node alive.
func Broadcast[T any](t *Thread, root int, val T, elemBytes int) T {
	r := runCollective(t, val, int64(elemBytes), func(vals []any) any {
		return vals[root]
	})
	return r.(T)
}

// AllGather returns the slice of every thread's contribution, indexed by
// thread id, on every thread (upc_all_gather_all). Entries of threads
// that crashed before contributing are the zero value.
func AllGather[T any](t *Thread, val T, elemBytes int) []T {
	r := runCollective(t, val, int64(elemBytes)*int64(t.N), func(vals []any) any {
		out := make([]T, len(vals))
		for i, v := range vals {
			if v != nil {
				out[i] = v.(T)
			}
		}
		return out
	})
	return r.([]T)
}
