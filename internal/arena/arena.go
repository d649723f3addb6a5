// Package arena provides a chunked bump allocator for per-stop frame
// buffers. A wardrive stop transmits tens of thousands of frames whose
// bytes all die together when the stop's simulation ends; allocating
// each copy individually made the garbage collector the second-largest
// line in the profile. An Arena hands out slices carved from large
// chunks and reclaims everything at once with Reset, keeping the
// chunks for the next stop.
//
// Arenas are not safe for concurrent use: each simulation owns one
// (the wardrive keeps a sync.Pool of them, one checked out per
// in-flight stop).
package arena

// chunkSize is the default chunk capacity. 64 KiB holds hundreds of
// 802.11 frames per chunk while staying small enough that an idle
// pooled arena does not pin meaningful memory.
const chunkSize = 64 << 10

// Arena is a chunked bump allocator. The zero value is ready to use.
type Arena struct {
	cur   []byte // active chunk; used counts the bytes handed out
	used  int
	spent [][]byte // exhausted chunks, reclaimed by Reset
	spare [][]byte // reclaimed chunks awaiting reuse
}

// New returns an empty arena. Equivalent to new(Arena); provided so
// pool constructors read naturally.
func New() *Arena { return &Arena{} }

// Alloc returns an n-byte slice carved from the arena. The memory is
// NOT zeroed — chunks are recycled across Resets — so callers must
// overwrite every byte (the radio medium copies a full frame into it).
// The slice has capacity n: appending to it allocates off-arena rather
// than silently overwriting a neighbouring allocation.
func (a *Arena) Alloc(n int) []byte {
	if a.used+n > len(a.cur) {
		a.grow(n)
	}
	b := a.cur[a.used : a.used+n : a.used+n]
	a.used += n
	return b
}

// grow makes room for an n-byte allocation: reuse a spare chunk when
// one is big enough, otherwise allocate a fresh chunk (oversized
// requests get a dedicated chunk).
func (a *Arena) grow(n int) {
	if a.cur != nil {
		a.spent = append(a.spent, a.cur)
	}
	for i := len(a.spare) - 1; i >= 0; i-- {
		if len(a.spare[i]) >= n {
			a.cur = a.spare[i]
			a.spare = append(a.spare[:i], a.spare[i+1:]...)
			a.used = 0
			return
		}
	}
	size := chunkSize
	if n > size {
		size = n
	}
	a.cur = make([]byte, size)
	a.used = 0
}

// Reset reclaims every allocation at once. The chunks are kept and
// reused by subsequent Allocs; previously returned slices must no
// longer be read or written.
func (a *Arena) Reset() {
	if a.cur != nil {
		a.spare = append(a.spare, a.cur)
		a.cur = nil
	}
	a.spare = append(a.spare, a.spent...)
	a.spent = a.spent[:0]
	a.used = 0
}
