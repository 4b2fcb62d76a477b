// Package poolesc seeds one violation per construct the poolescape
// pass knows about: pooled scratch returned, stored into fields,
// globals, channels, captured by unjoined goroutines, and laundered
// through one-level helpers — next to the copied, joined, refilled,
// and waived shapes that must stay clean.
package poolesc

import (
	"fmt"
	"slices"
	"sync"
)

var bufPool = sync.Pool{New: func() any { return make([]byte, 0, 256) }}

// scratch hands out the package pool's buffer; the directive makes it
// a pooled source and exempts its own body.
//
//cafe:pooled callers must Put the buffer back when done
func scratch() []byte {
	return bufPool.Get().([]byte)
}

// leakReturn hands the pool's memory to the caller.
func leakReturn() []byte {
	buf := bufPool.Get().([]byte)
	return buf //violation:poolescape
}

// leakFromGetter escapes through the annotated source.
func leakFromGetter() []byte {
	return scratch() //violation:poolescape
}

// okCopied is the blessed shape: copy, Put, return the copy.
func okCopied() []byte {
	buf := bufPool.Get().([]byte)
	out := make([]byte, len(buf))
	copy(out, buf)
	bufPool.Put(buf)
	return out
}

// sinkVar exists to receive an escaping store.
var sinkVar []byte

// leakGlobal parks pooled memory in a package-level variable.
func leakGlobal() {
	buf := bufPool.Get().([]byte)
	sinkVar = buf //violation:poolescape
}

// holder carries scratch between helper calls of one operation. data
// is plain; scratch is declared pool-owned.
type holder struct {
	data    []byte
	scratch []byte //cafe:pooled refilled from bufPool at the start of each call
}

// leakStore retains pooled memory in an unannotated field.
func (h *holder) leakStore() {
	buf := bufPool.Get().([]byte)
	h.data = buf //violation:poolescape
}

// okRefill stores into the annotated field: the pool's own business.
func (h *holder) okRefill() {
	h.scratch = bufPool.Get().([]byte)
}

// leakField reads the annotated field and hands it out.
func (h *holder) leakField() []byte {
	return h.scratch //violation:poolescape
}

// leakSend pushes pooled memory through a channel.
func leakSend(ch chan []byte) {
	buf := bufPool.Get().([]byte)
	ch <- buf //violation:poolescape
}

// okWaived is the same shape with a documented owner.
func okWaived(ch chan []byte) {
	buf := bufPool.Get().([]byte)
	ch <- buf //cafe:allow poolescape the consumer returns the buffer to bufPool when done
}

func process(xs []byte) { _ = len(xs) }

// leakGoroutine hands pooled memory to a goroutine nobody joins.
func leakGoroutine() {
	buf := bufPool.Get().([]byte)
	go process(buf) //violation:poolescape
}

// leakCapture is the closure-capture variant.
func leakCapture(ch chan int) {
	buf := bufPool.Get().([]byte)
	go func() { //violation:poolescape
		ch <- len(buf)
	}()
}

// okJoinedGoroutine bounds the goroutine's lifetime with a WaitGroup,
// so the scratch never outlives the call.
func okJoinedGoroutine() {
	buf := bufPool.Get().([]byte)
	var wg sync.WaitGroup
	wg.Add(1)
	go func(b []byte) {
		defer wg.Done()
		process(b)
	}(buf)
	wg.Wait()
	bufPool.Put(buf)
}

// identity returns its argument; the function summary carries the
// flow one helper deep.
func identity(xs []byte) []byte { return xs }

// leakViaHelper escapes through identity's returns-arg summary.
func leakViaHelper() []byte {
	buf := bufPool.Get().([]byte)
	return identity(buf) //violation:poolescape
}

// retained receives what retain parks.
var retained [][]byte

// retain stores its argument in a global; the summary records
// retains-arg.
func retain(xs []byte) {
	retained = append(retained, xs)
}

// leakViaRetainer escapes through retain's retains-arg summary.
func leakViaRetainer() {
	buf := bufPool.Get().([]byte)
	retain(buf) //violation:poolescape
	bufPool.Put(buf)
}

// leakConditional is only pooled on one path; the join keeps the
// may-fact alive.
func leakConditional(fresh bool) []byte {
	buf := make([]byte, 64)
	if !fresh {
		buf = bufPool.Get().([]byte)
	}
	return buf //violation:poolescape
}

// okOverwritten kills the fact with a strong update before returning.
func okOverwritten() []byte {
	buf := bufPool.Get().([]byte)
	bufPool.Put(buf)
	buf = make([]byte, 64)
	return buf
}

// okContained keeps pooled memory inside a local container for the
// duration of the call.
func okContained() int {
	buf := bufPool.Get().([]byte)
	batch := make([][]byte, 0, 1)
	batch = append(batch, buf)
	n := 0
	for _, b := range batch {
		n += len(b)
	}
	bufPool.Put(buf)
	return n
}

// okGenericSort passes pooled scratch to a generic function: the type
// parameter is instantiated with []byte itself, so nothing is boxed and
// slices.Sort works on the caller's backing array in place.
func okGenericSort() {
	buf := bufPool.Get().([]byte)
	slices.Sort(buf)
	bufPool.Put(buf)
}

// leakBoxed hands pooled scratch to an interface parameter outside the
// module, which may keep it.
func leakBoxed() string {
	buf := bufPool.Get().([]byte)
	return fmt.Sprint(buf) //violation:poolescape
}
