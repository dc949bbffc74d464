// Quickstart: run real fork-join Go code on the DFDeques user-level
// thread runtime.
//
// The program sorts a slice with a parallel mergesort in which every
// recursive call is its own lightweight thread — the programming style the
// paper advocates: express all parallelism, let the scheduler throttle it.
// It prints the scheduler statistics so you can see how few threads were
// simultaneously live despite the thousands created.
//
// Usage: go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"sort"

	"dfdeques"
)

const cutoff = 256 // sort runs below this serially

func mergesort(t *dfdeques.Thread, s, buf []int) {
	if len(s) <= cutoff {
		sort.Ints(s)
		return
	}
	mid := len(s) / 2
	// Fork the left half: it waits on our deque while we sort the right
	// half, so an idle worker can steal it; if none did, Join runs it
	// inline.
	h := t.Fork(func(c *dfdeques.Thread) { mergesort(c, s[:mid], buf[:mid]) })
	mergesort(t, s[mid:], buf[mid:])
	t.Join(h)
	merge(s, mid, buf)
}

func merge(s []int, mid int, buf []int) {
	copy(buf, s)
	i, j := 0, mid
	for k := range s {
		switch {
		case i >= mid:
			s[k] = buf[j]
			j++
		case j >= len(s):
			s[k] = buf[i]
			i++
		case buf[i] <= buf[j]:
			s[k] = buf[i]
			i++
		default:
			s[k] = buf[j]
			j++
		}
	}
}

func main() {
	const n = 1 << 17
	data := rand.New(rand.NewSource(42)).Perm(n)
	buf := make([]int, n)

	stats, err := dfdeques.Run(dfdeques.RuntimeConfig{
		Workers: 8,
		Sched:   dfdeques.SchedDFDeques,
		K:       50_000,
		Seed:    1,
	}, func(t *dfdeques.Thread) {
		mergesort(t, data, buf)
	})
	if err != nil {
		panic(err)
	}
	if !sort.IntsAreSorted(data) {
		panic("not sorted")
	}

	fmt.Printf("sorted %d ints with parallel mergesort under DFDeques(50k)\n", n)
	fmt.Printf("  threads created:        %d\n", stats.TotalThreads)
	fmt.Printf("  max simultaneously live: %d\n", stats.MaxLiveThreads)
	fmt.Printf("  steals:                 %d\n", stats.Steals)
	fmt.Printf("  own-deque dispatches:   %d\n", stats.LocalDispatches)
}
