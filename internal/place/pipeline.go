package place

import (
	"sync"
	"sync/atomic"
)

// Flat-combining commit pipeline.
//
// The Admitter funnels its critical sections through a combiner:
// callers publish operations on a lock-free MPSC list, and whichever
// caller wins a combiner token drains the list and executes the whole
// batch — in arrival order — under ONE acquisition of the admitter
// mutex. Under contention this replaces N mutex handoffs (each a
// scheduler wakeup) with one: the combiner executes the place-and-commit
// and release sections back to back while the other submitters sleep
// exactly once on their op's completion signal. With a single caller
// the queue degenerates to push + self-execute, so the serial path's
// behavior — and the ledger it produces — is unchanged.
//
// The combiner executes operations strictly in arrival order, so with
// serial callers the commit order (and therefore the ledger bytes) is
// identical to direct mutex acquisition. With concurrent callers the
// arrival order is scheduling-dependent, exactly as mutex acquisition
// order already was.

// combineOp is one queued critical section. done carries the completion
// signal (buffered, send-based, so ops are poolable).
type combineOp struct {
	next *combineOp
	run  func()
	done chan struct{}
}

// opPool recycles combineOps; the done channel survives reuse because
// completion is a buffered send, not a close.
var opPool = sync.Pool{
	New: func() any { return &combineOp{done: make(chan struct{}, 1)} },
}

// combiner is the flat-combining queue guarding one admitter's ledger.
type combiner struct {
	// head is the MPSC publication list (Treiber push; drained by a
	// whole-list swap). Push order is LIFO, so the drain reverses it to
	// recover arrival order.
	head atomic.Pointer[combineOp]
	// token elects the combiner: whoever can buffer into this cap-1
	// channel drains and executes the list until it is empty.
	token chan struct{}
}

func newCombiner() *combiner {
	return &combiner{token: make(chan struct{}, 1)}
}

// do executes fn under mu via the combining queue and returns when fn
// has run. fn must not call do on the same combiner (the submitter may
// execute it while holding mu). The caller must not hold mu.
func (c *combiner) do(mu *sync.Mutex, fn func()) {
	op := opPool.Get().(*combineOp)
	op.run = fn
	// Publish, then either wait for a combiner to execute the op or
	// become the combiner. The select prevents the lost-wakeup race: a
	// submitter is never blocked solely on done while the queue is
	// unowned — it always also bids for the token.
	for {
		op.next = c.head.Load()
		if c.head.CompareAndSwap(op.next, op) {
			break
		}
	}
	for {
		select {
		case <-op.done:
			op.run, op.next = nil, nil
			opPool.Put(op)
			return
		case c.token <- struct{}{}:
			c.drain(mu)
			<-c.token
			// Drained the queue while holding the token; the op was
			// either executed by this drain or by a concurrent combiner
			// that swiped it first. It cannot still be queued — but its
			// signal may not have been sent yet, so loop back to wait.
		}
	}
}

// drain executes every queued op, in arrival order, batch by batch,
// under one mutex acquisition per batch. It returns when the queue is
// observed empty.
func (c *combiner) drain(mu *sync.Mutex) {
	for {
		head := c.head.Swap(nil)
		if head == nil {
			return
		}
		// The swap yields newest-first; reverse to arrival order.
		var batch *combineOp
		for head != nil {
			next := head.next
			head.next = batch
			batch = head
			head = next
		}
		mu.Lock()
		for op := batch; op != nil; {
			next := op.next // op may be recycled the instant done is signaled
			op.run()
			op.done <- struct{}{}
			op = next
		}
		mu.Unlock()
	}
}
