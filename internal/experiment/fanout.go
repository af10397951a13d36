package experiment

import "sync"

// fanOut runs cell(0) … cell(n-1) on their own goroutines and waits for
// every one of them. A panic in a cell is recovered on that cell's
// goroutine and re-raised here, on the caller's (the lowest-index one
// when several cells panic), so runTask's recover turns it into a failed
// task instead of a crashed process. Cells must not share mutable
// state: each writes only its own result slot.
func fanOut(n int, cell func(i int)) {
	panics := make([]any, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			cell(i)
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
