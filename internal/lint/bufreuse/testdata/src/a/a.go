// Package a is a bufreuse fixture: pooled reception/arena buffers
// escaping their stop versus local, copied, or within-stop uses.
package a

// Reception mirrors the shape of radio.Reception for the fixture.
type Reception struct {
	Data []byte
	RSSI float64
}

// Arena mirrors the shape of arena.Arena.
type Arena struct{ buf []byte }

func (a *Arena) Alloc(n int) []byte { return a.buf[:n] }

// event is a capture-ring item wrapping a reception.
type event struct {
	rx      Reception
	payload []byte
}

var lastData []byte
var lastRx Reception
var history [][]byte

// sendsReception ships the whole reception across a goroutine
// boundary; its Data alias outlives the stop's arena scope.
func sendsReception(ch chan Reception, rx Reception) {
	ch <- rx // want "pooled buffer sent on a channel"
}

// sendsData ships the raw arena-backed byte alias.
func sendsData(ch chan []byte, rx Reception) {
	ch <- rx.Data // want "pooled buffer sent on a channel"
}

// sendsWrapped hides the reception inside a composite local first —
// a capture ring's item shape.
func sendsWrapped(ch chan event, rx Reception) {
	ev := event{rx: rx}
	ch <- ev // want "pooled buffer sent on a channel"
}

// sendsSlice reslices before sending; the backing array is still the
// arena's.
func sendsSlice(ch chan []byte, rx Reception) {
	ch <- rx.Data[4:] // want "pooled buffer sent on a channel"
}

// storesGlobal parks the alias in a package-level variable that a
// later stop will read after the arena rewound.
func storesGlobal(rx Reception) {
	lastData = rx.Data // want "pooled buffer stored in a package-level variable"
}

// storesGlobalStruct stores the whole reception value; the embedded
// Data field still aliases the arena.
func storesGlobalStruct(rx Reception) {
	lastRx = rx // want "pooled buffer stored in a package-level variable"
}

// appendsGlobal retains the slice header as one element of a
// package-level container.
func appendsGlobal(rx Reception) {
	history = append(history, rx.Data) // want "pooled buffer stored in a package-level variable"
}

// arenaEscape leaks an Alloc result through a local binding.
func arenaEscape(ar *Arena, ch chan []byte) {
	buf := ar.Alloc(16)
	ch <- buf // want "pooled buffer sent on a channel"
}

// sendsCopy severs the alias with the sanctioned spread-append copy.
func sendsCopy(ch chan []byte, rx Reception) {
	ch <- append([]byte(nil), rx.Data...)
}

// storesCopyGlobal copies before the global store.
func storesCopyGlobal(rx Reception) {
	lastData = append([]byte(nil), rx.Data...)
}

// localUse reads the buffer synchronously inside the handler — the
// normal, pooling-safe consumption pattern.
func localUse(rx Reception) int {
	d := rx.Data
	return len(d)
}

// fieldStoreLocal is the pooled-job idiom: a deferred event re-reads
// the buffer later in the same stop. Stores into locals' fields are
// deliberately out of scope.
func fieldStoreLocal(rx Reception) event {
	var ev event
	ev.rx = rx
	return ev
}

// sanctioned carries a reasoned directive.
func sanctioned(ch chan Reception, rx Reception) {
	ch <- rx //politevet:allow bufreuse(fixture for a tap whose medium runs without an arena)
}
