package replay

import (
	"bytes"
	"encoding/base64"
	"errors"
	"io"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"politewifi/internal/radio"
)

// Load's reader. It reads the log one JSON value at a time through a
// reused buffer and parses each record with a scanner written for
// the schema, giving the results encoding/json's Decoder would: the
// same accepted values, the same rejected record index, the same byte
// offsets, and the same Record contents. See the package doc for the
// one input shape it rejects where encoding/json accepts.

const (
	readChunk = 64 << 10 // initial read buffer; grows to the longest value
	dataSlab  = 64 << 10 // bytes per chunk that decoded Data is carved from
	txSlab    = 256      // FrameTx per chunk
	ccaSlab   = 256      // CCACheck per chunk
	rxSlab    = 1024     // FrameRx per chunk
	maxDepth  = 10000    // encoding/json's nesting limit
)

// errShort means the value being parsed runs past the end of the
// buffer: read more and parse the value again from its start.
var errShort = errors.New("framelog: value continues past the buffer")

// syntaxError is malformed JSON. Like encoding/json's, it is
// positioned at the end of the last whole value.
type syntaxError struct{ msg string }

func (e *syntaxError) Error() string { return e.msg }

func badChar(c byte, context string) error {
	return &syntaxError{"invalid character " + strconv.QuoteRune(rune(c)) + " " + context}
}

// typeError is well-formed JSON that does not fit the schema. It is
// positioned at the end of the value, as encoding/json's are.
type typeError struct {
	value string // JSON kind ("string", "number 1.5", ...)
	field string // schema path ("tx.start")
}

func (e *typeError) Error() string {
	return "cannot unmarshal " + e.value + " into " + e.field
}

// mismatch reports the value starting with c as the wrong kind for
// field.
func mismatch(c byte, field string) error {
	kind := "number"
	switch c {
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	}
	return &typeError{value: kind, field: field}
}

// decoder is the state of one Load call: the read buffer, the strings
// seen so far (so each distinct src/dst/label is one string), and the
// chunks that records are carved from.
type decoder struct {
	r    io.Reader
	rerr error // first error from r; io.EOF once it is drained
	buf  []byte
	pos  int   // parse position in buf
	base int64 // log offset of buf[0]
	end  int64 // log offset just past the last whole value

	strs    map[string]string
	scratch []byte          // unescaped string bytes
	rxBuf   []radio.FrameRx // elements of the rx array being parsed
	// rxHeap says the current tx's Rx is a heap slice with the
	// capacity encoding/json would have given it, not a slab slice
	// clipped to its length (see rxMerge).
	rxHeap bool

	data []byte
	txs  []radio.FrameTx
	ccas []radio.CCACheck
	rxs  []radio.FrameRx
}

func newDecoder(r io.Reader) *decoder {
	return &decoder{r: r, strs: make(map[string]string)}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// plain marks the bytes a string can hold without unquoting: ASCII
// from the space up, except '"' and '\\'.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// fill drops the bytes before keep and reads more input.
func (d *decoder) fill(keep int) {
	if keep > 0 {
		n := copy(d.buf, d.buf[keep:])
		d.buf = d.buf[:n]
		d.base += int64(keep)
		d.pos -= keep
	}
	if len(d.buf) == cap(d.buf) {
		nb := make([]byte, len(d.buf), max(2*cap(d.buf), readChunk))
		copy(nb, d.buf)
		d.buf = nb
	}
	n, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
	d.buf = d.buf[:len(d.buf)+n]
	if err != nil {
		d.rerr = err
	}
}

// begin moves to the start of the next value. It returns io.EOF when
// only whitespace is left.
func (d *decoder) begin() error {
	for {
		for ; d.pos < len(d.buf); d.pos++ {
			if !isSpace(d.buf[d.pos]) {
				return nil
			}
		}
		if d.rerr != nil {
			return d.rerr
		}
		d.fill(d.pos)
	}
}

// more rewinds to the value's start after errShort and reads until
// the buffer holds at least twice as much of the value as before, so
// each value is parsed O(log n) times however short the reads; or it
// reports why there is no more.
func (d *decoder) more(start int) error {
	d.pos = start
	if d.rerr == io.EOF {
		return io.ErrUnexpectedEOF
	}
	if d.rerr != nil {
		return d.rerr
	}
	have := len(d.buf) - start
	d.fill(start)
	for d.rerr == nil && len(d.buf) < 2*have {
		d.fill(0)
	}
	return nil
}

// rawValue reads the next value without decoding it and returns its
// bytes, which are valid until the next read.
func (d *decoder) rawValue() ([]byte, error) {
	if err := d.begin(); err != nil {
		return nil, err
	}
	for {
		start := d.pos
		err := d.skip(0)
		if err == errShort {
			if err = d.more(start); err == nil {
				continue
			}
			return nil, err
		}
		if err != nil {
			return nil, err
		}
		d.end = d.base + int64(d.pos)
		return d.buf[start:d.pos], nil
	}
}

// record reads the next record into rec. It returns io.EOF when only
// whitespace is left.
func (d *decoder) record(rec *Record) error {
	if err := d.begin(); err != nil {
		return err
	}
	for {
		start := d.pos
		*rec = Record{}
		err := d.recordValue(rec)
		if err == errShort {
			if err = d.more(start); err == nil {
				continue
			}
			return err
		}
		if err == nil {
			d.end = d.base + int64(d.pos)
			return nil
		}
		if _, ok := err.(*syntaxError); ok {
			return err
		}
		// The value does not fit the schema. encoding/json reads the
		// whole value before decoding it, so a syntax error or a
		// truncation anywhere in it wins.
		d.pos = start
		if _, serr := d.rawValue(); serr != nil {
			return serr
		}
		return err
	}
}

// ws skips whitespace inside a value.
func (d *decoder) ws() error {
	if d.pos < len(d.buf) && !isSpace(d.buf[d.pos]) {
		return nil
	}
	return d.wsSlow()
}

func (d *decoder) wsSlow() error {
	for ; d.pos < len(d.buf); d.pos++ {
		if !isSpace(d.buf[d.pos]) {
			return nil
		}
	}
	return errShort
}

// key moves past the '{' (first) or the ',' before the next member
// and returns its name, leaving d at the start of its value. done
// reports the closing '}' instead.
func (d *decoder) key(first bool) (name []byte, done bool, err error) {
	// Fast path for what Recorder writes: a plain name right after the
	// brace or comma and a value right after the colon.
	b, i := d.buf, d.pos
	if i < len(b) && b[i] == '}' {
		d.pos++
		return nil, true, nil
	}
	if !first && i < len(b) && b[i] == ',' {
		i++
	}
	if (first || i > d.pos) && i < len(b) && b[i] == '"' {
		j := i + 1
		for j < len(b) && plain[b[j]] {
			j++
		}
		if j+2 < len(b) && b[j] == '"' && b[j+1] == ':' && !isSpace(b[j+2]) {
			d.pos = j + 2
			return b[i+1 : j], false, nil
		}
	}
	return d.keySlow(first)
}

func (d *decoder) keySlow(first bool) (name []byte, done bool, err error) {
	if err := d.ws(); err != nil {
		return nil, false, err
	}
	c := d.buf[d.pos]
	if c == '}' {
		d.pos++
		return nil, true, nil
	}
	if !first {
		if c != ',' {
			return nil, false, badChar(c, "after object key:value pair")
		}
		d.pos++
		if err := d.ws(); err != nil {
			return nil, false, err
		}
		c = d.buf[d.pos]
	}
	if c != '"' {
		return nil, false, badChar(c, "looking for beginning of object key string")
	}
	if name, err = d.str(); err != nil {
		return nil, false, err
	}
	if err := d.ws(); err != nil {
		return nil, false, err
	}
	if c := d.buf[d.pos]; c != ':' {
		return nil, false, badChar(c, "after object key")
	}
	d.pos++
	return name, false, d.ws()
}

// elem moves past the '[' (first) or the ',' before the next array
// element, leaving d at its start; done reports the closing ']'.
func (d *decoder) elem(first bool) (done bool, err error) {
	if err := d.ws(); err != nil {
		return false, err
	}
	c := d.buf[d.pos]
	if c == ']' {
		d.pos++
		return true, nil
	}
	if !first {
		if c != ',' {
			return false, badChar(c, "after array element")
		}
		d.pos++
		return false, d.ws()
	}
	return false, nil
}

// skip checks the syntax of the value at d.pos and moves past it;
// depth is the number of objects and arrays enclosing it.
func (d *decoder) skip(depth int) error {
	switch c := d.buf[d.pos]; {
	case c == '{' || c == '[':
		if depth++; depth > maxDepth {
			return badChar(c, "exceeded max depth")
		}
		d.pos++
		for first := true; ; first = false {
			var done bool
			var err error
			if c == '{' {
				_, done, err = d.key(first)
			} else {
				done, err = d.elem(first)
			}
			if err != nil || done {
				return err
			}
			if err := d.skip(depth); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.lit("true")
	case c == 'f':
		return d.lit("false")
	case c == 'n':
		return d.lit("null")
	case c == '-' || isDigit(c):
		_, err := d.num()
		return err
	default:
		return badChar(c, "looking for beginning of value")
	}
}

// lit moves past the literal word, which starts at d.pos.
func (d *decoder) lit(word string) error {
	for k := 1; k < len(word); k++ {
		i := d.pos + k
		if i >= len(d.buf) {
			return errShort
		}
		if d.buf[i] != word[k] {
			return badChar(d.buf[i], "in literal "+word+" (expecting "+strconv.QuoteRune(rune(word[k]))+")")
		}
	}
	d.pos += len(word)
	return nil
}

// num moves past the number at d.pos and returns its text.
func (d *decoder) num() ([]byte, error) {
	b := d.buf
	start, i := d.pos, d.pos
	if b[i] == '-' {
		i++
	}
	// digits moves i past a run of digits, reporting whether the
	// buffer ended inside it.
	digits := func() bool {
		for ; i < len(b); i++ {
			if !isDigit(b[i]) {
				return false
			}
		}
		return true
	}
	if i >= len(b) {
		return nil, errShort
	}
	switch c := b[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		i++
		if digits() {
			return d.numEnd(start, i)
		}
	default:
		return nil, badChar(c, "in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) {
			return nil, errShort
		}
		if !isDigit(b[i]) {
			return nil, badChar(b[i], "after decimal point in numeric literal")
		}
		if digits() {
			return d.numEnd(start, i)
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) {
			return nil, errShort
		}
		if !isDigit(b[i]) {
			return nil, badChar(b[i], "in exponent of numeric literal")
		}
		digits()
	}
	return d.numEnd(start, i)
}

// numEnd finishes a number at i; one that reaches the end of the
// buffer may go on unless the log ends there.
func (d *decoder) numEnd(start, i int) ([]byte, error) {
	if i >= len(d.buf) && d.rerr != io.EOF {
		return nil, errShort
	}
	d.pos = i
	return d.buf[start:i], nil
}

// str moves past the string at d.pos and returns its unquoted bytes,
// valid until the next str call or read.
func (d *decoder) str() ([]byte, error) {
	b := d.buf
	i := d.pos + 1
	for i < len(b) && plain[b[i]] {
		i++
	}
	if i >= len(b) {
		return nil, errShort
	}
	if b[i] != '"' {
		return d.strSlow()
	}
	s := b[d.pos+1 : i]
	d.pos = i + 1
	return s, nil
}

// dataStr is str for tx.data. A base64 string has no escapes, so the
// common case finds the closing quote with IndexByte and leaves the
// rest to base64: a byte outside its alphabet fails the decode, and
// the type-error path (see record) re-reads the value with str, which
// reports any syntax error first. Only '\n' and '\r', which base64
// skips but JSON forbids raw in a string, need checking here.
func (d *decoder) dataStr() ([]byte, error) {
	b := d.buf[d.pos+1:]
	q := bytes.IndexByte(b, '"')
	if q < 0 {
		return d.str() // a syntax error in what has been read wins
	}
	s := b[:q]
	if bytes.IndexByte(s, '\\') >= 0 || bytes.IndexByte(s, '\n') >= 0 || bytes.IndexByte(s, '\r') >= 0 {
		return d.str()
	}
	d.pos += q + 2
	return s, nil
}

// strSlow unquotes a string with escapes or non-ASCII bytes into
// d.scratch the way encoding/json does: invalid UTF-8 and unpaired
// surrogate escapes become U+FFFD.
func (d *decoder) strSlow() ([]byte, error) {
	b := d.buf
	out := d.scratch[:0]
	for i := d.pos + 1; ; {
		if i >= len(b) {
			return nil, errShort
		}
		switch c := b[i]; {
		case c == '"':
			d.pos = i + 1
			d.scratch = out
			return out, nil
		case c < 0x20:
			return nil, badChar(c, "in string literal")
		case c == '\\':
			if i+1 >= len(b) {
				return nil, errShort
			}
			e := b[i+1]
			i += 2
			switch e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, err := hex4(b, i)
				if err != nil {
					return nil, err
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A following \uXXXX that completes a valid pair
					// is consumed with it.
					if i >= len(b) || b[i] == '\\' && i+1 >= len(b) {
						return nil, errShort
					}
					if b[i] == '\\' && b[i+1] == 'u' {
						r2, err := hex4(b, i+2)
						if err == errShort {
							return nil, err
						}
						if dec := utf16.DecodeRune(r, r2); err == nil && dec != utf8.RuneError {
							out = utf8.AppendRune(out, dec)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, badChar(e, "in string escape code")
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			if !utf8.FullRune(b[i:]) {
				return nil, errShort
			}
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
}

// hex4 parses the four hex digits of a \u escape at b[i:].
func hex4(b []byte, i int) (rune, error) {
	var r rune
	for k := i; k < i+4; k++ {
		if k >= len(b) {
			return 0, errShort
		}
		c := b[k]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, badChar(c, `in \u hexadecimal character escape`)
		}
		r = r*16 + rune(c)
	}
	return r, nil
}

// intern returns b as a string, one copy per distinct value per Load.
func (d *decoder) intern(b []byte) string {
	// The medium's outcome names need no lookup.
	switch string(b) {
	case radio.FxLock:
		return radio.FxLock
	case radio.OutDeliver:
		return radio.OutDeliver
	case radio.OutUnlock:
		return radio.OutUnlock
	case radio.FxSteal:
		return radio.FxSteal
	case radio.FxWin:
		return radio.FxWin
	case radio.FxClash:
		return radio.FxClash
	case radio.DropSNR:
		return radio.DropSNR
	}
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// Member names per object. Each xxxField function returns the index
// in xxxNames of the member key selects, as encoding/json matches
// names: exactly (a switch on constants, the fast path), else
// case-insensitively under Unicode simple folding; -1 for an unknown
// key.
var (
	recordNames = [...]string{"stop", "tx", "cca"}
	txNames     = [...]string{"src", "start", "end", "rate", "data", "label", "exchange", "below_sens", "rx"}
	rateNames   = [...]string{"Mbps", "Mod", "NDBPS", "Basic", "HT"}
	rxNames     = [...]string{"dst", "begin", "end", "rssi", "fx", "out", "fcs", "drop", "consulted"}
	ccaNames    = [...]string{"src", "at", "busy"}
)

func foldField(key []byte, names []string) int {
	for i, n := range names {
		if strings.EqualFold(string(key), n) {
			return i
		}
	}
	return -1
}

func recordField(key []byte) int {
	switch string(key) {
	case "stop":
		return 0
	case "tx":
		return 1
	case "cca":
		return 2
	}
	return foldField(key, recordNames[:])
}

func txField(key []byte) int {
	switch string(key) {
	case "src":
		return 0
	case "start":
		return 1
	case "end":
		return 2
	case "rate":
		return 3
	case "data":
		return 4
	case "label":
		return 5
	case "exchange":
		return 6
	case "below_sens":
		return 7
	case "rx":
		return 8
	}
	return foldField(key, txNames[:])
}

func rateField(key []byte) int {
	switch string(key) {
	case "Mbps":
		return 0
	case "Mod":
		return 1
	case "NDBPS":
		return 2
	case "Basic":
		return 3
	case "HT":
		return 4
	}
	return foldField(key, rateNames[:])
}

func rxField(key []byte) int {
	switch string(key) {
	case "dst":
		return 0
	case "begin":
		return 1
	case "end":
		return 2
	case "rssi":
		return 3
	case "fx":
		return 4
	case "out":
		return 5
	case "fcs":
		return 6
	case "drop":
		return 7
	case "consulted":
		return 8
	}
	return foldField(key, rxNames[:])
}

func ccaField(key []byte) int {
	switch string(key) {
	case "src":
		return 0
	case "at":
		return 1
	case "busy":
		return 2
	}
	return foldField(key, ccaNames[:])
}

// The typed value parsers below leave the destination alone on a
// JSON null, as encoding/json does for strings, numbers, bools and
// structs.

func (d *decoder) strField(dst *string, name string) error {
	switch c := d.buf[d.pos]; c {
	case '"':
		s, err := d.str()
		if err != nil {
			return err
		}
		*dst = d.intern(s)
		return nil
	case 'n':
		return d.lit("null")
	default:
		return mismatch(c, name)
	}
}

func (d *decoder) boolField(dst *bool, name string) error {
	switch c := d.buf[d.pos]; c {
	case 't', 'f':
		word := "true"
		if c == 'f' {
			word = "false"
		}
		if err := d.lit(word); err != nil {
			return err
		}
		*dst = c == 't'
		return nil
	case 'n':
		return d.lit("null")
	default:
		return mismatch(c, name)
	}
}

// number returns the text of the number at d.pos, or nil for null.
func (d *decoder) number(name string) ([]byte, error) {
	switch c := d.buf[d.pos]; {
	case c == '-' || isDigit(c):
		return d.num()
	case c == 'n':
		return nil, d.lit("null")
	default:
		return nil, mismatch(c, name)
	}
}

func (d *decoder) int64Field(dst *int64, name string) error {
	lit, err := d.number(name)
	if lit == nil || err != nil {
		return err
	}
	v, ok := parseInt(lit)
	if !ok {
		return &typeError{value: "number " + string(lit), field: name}
	}
	*dst = v
	return nil
}

func (d *decoder) intField(dst *int, name string) error {
	lit, err := d.number(name)
	if lit == nil || err != nil {
		return err
	}
	v, ok := parseInt(lit)
	if !ok || int64(int(v)) != v {
		return &typeError{value: "number " + string(lit), field: name}
	}
	*dst = int(v)
	return nil
}

func (d *decoder) uint64Field(dst *uint64, name string) error {
	lit, err := d.number(name)
	if lit == nil || err != nil {
		return err
	}
	v, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		return &typeError{value: "number " + string(lit), field: name}
	}
	*dst = v
	return nil
}

func (d *decoder) float64Field(dst *float64, name string) error {
	lit, err := d.number(name)
	if lit == nil || err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return &typeError{value: "number " + string(lit), field: name}
	}
	*dst = v
	return nil
}

// parseInt is strconv.ParseInt(lit, 10, 64) for a JSON number's text.
func parseInt(lit []byte) (int64, bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	// JSON forbids leading zeros, so 20 or more digits overflow.
	if len(lit) == 0 || len(lit) > 19 {
		return 0, false
	}
	var u uint64
	for _, c := range lit {
		if !isDigit(c) {
			return 0, false // a fraction or an exponent
		}
		u = u*10 + uint64(c-'0')
	}
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return int64(-u), true
	}
	if u > 1<<63-1 {
		return 0, false
	}
	return int64(u), true
}

// object moves into the object at d.pos. On null it moves past it
// and returns false, leaving the destination to the caller; anything
// else is a type error.
func (d *decoder) object(name string) (bool, error) {
	switch c := d.buf[d.pos]; c {
	case '{':
		d.pos++
		return true, nil
	case 'n':
		return false, d.lit("null")
	default:
		return false, mismatch(c, name)
	}
}

// take returns the next element of *slab, which is zero, starting a
// new chunk of n elements when the current one is full.
func take[T any](slab *[]T, n int) *T {
	if len(*slab) == cap(*slab) {
		*slab = make([]T, 0, n)
	}
	*slab = (*slab)[:len(*slab)+1]
	return &(*slab)[len(*slab)-1]
}

func (d *decoder) recordValue(rec *Record) error {
	if ok, err := d.object("record"); !ok {
		return err
	}
	for first := true; ; first = false {
		key, done, err := d.key(first)
		if err != nil || done {
			return err
		}
		switch recordField(key) {
		case 0:
			err = d.intField(&rec.Stop, "stop")
		case 1:
			err = d.txValue(rec)
		case 2:
			err = d.ccaValue(rec)
		default:
			err = d.skip(1)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) txValue(rec *Record) error {
	if ok, err := d.object("tx"); !ok {
		rec.TX = nil
		return err
	}
	if rec.TX == nil {
		rec.TX = take(&d.txs, txSlab)
	}
	tx := rec.TX
	for first := true; ; first = false {
		key, done, err := d.key(first)
		if err != nil || done {
			return err
		}
		switch txField(key) {
		case 0:
			err = d.strField(&tx.Src, "tx.src")
		case 1:
			err = d.int64Field((*int64)(&tx.Start), "tx.start")
		case 2:
			err = d.int64Field((*int64)(&tx.End), "tx.end")
		case 3:
			err = d.rateValue(tx)
		case 4:
			err = d.dataValue(tx)
		case 5:
			err = d.strField(&tx.Label, "tx.label")
		case 6:
			err = d.uint64Field(&tx.Exchange, "tx.exchange")
		case 7:
			err = d.intField(&tx.BelowSens, "tx.below_sens")
		case 8:
			err = d.rxValue(tx)
		default:
			err = d.skip(2)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) rateValue(tx *radio.FrameTx) error {
	if ok, err := d.object("tx.rate"); !ok {
		return err
	}
	r := &tx.Rate
	for first := true; ; first = false {
		key, done, err := d.key(first)
		if err != nil || done {
			return err
		}
		switch rateField(key) {
		case 0:
			err = d.float64Field(&r.Mbps, "tx.rate.Mbps")
		case 1:
			err = d.intField((*int)(&r.Mod), "tx.rate.Mod")
		case 2:
			err = d.intField(&r.NDBPS, "tx.rate.NDBPS")
		case 3:
			err = d.boolField(&r.Basic, "tx.rate.Basic")
		case 4:
			err = d.boolField(&r.HT, "tx.rate.HT")
		default:
			err = d.skip(3)
		}
		if err != nil {
			return err
		}
	}
}

// dataValue decodes tx.data into a chunk shared with other records;
// the slice's capacity is clipped to its length, so appending to one
// record's Data never writes into another's.
func (d *decoder) dataValue(tx *radio.FrameTx) error {
	switch c := d.buf[d.pos]; c {
	case '"':
	case 'n':
		tx.Data = nil
		return d.lit("null")
	default:
		// encoding/json would take an array of byte values here; see
		// the package doc.
		return mismatch(c, "tx.data")
	}
	s, err := d.dataStr()
	if err != nil {
		return err
	}
	n := base64.StdEncoding.DecodedLen(len(s))
	if d.data == nil || cap(d.data)-len(d.data) < n {
		d.data = make([]byte, 0, max(dataSlab, n))
	}
	at := len(d.data)
	m, err := base64.StdEncoding.Decode(d.data[at:at+n], s)
	if err != nil {
		return err
	}
	d.data = d.data[:at+m]
	tx.Data = d.data[at : at+m : at+m]
	return nil
}

func (d *decoder) rxValue(tx *radio.FrameTx) error {
	switch c := d.buf[d.pos]; c {
	case '[':
	case 'n':
		tx.Rx = nil
		return d.lit("null")
	default:
		return mismatch(c, "tx.rx")
	}
	if tx.Rx != nil {
		return d.rxMerge(tx)
	}
	d.pos++
	rxs := d.rxBuf[:0]
	for first := true; ; first = false {
		done, err := d.elem(first)
		if err != nil {
			return err
		}
		if done {
			break
		}
		rxs = append(rxs, radio.FrameRx{})
		d.rxBuf = rxs
		if err := d.rxElem(&rxs[len(rxs)-1]); err != nil {
			return err
		}
	}
	d.rxHeap = false
	n := len(rxs)
	if n == 0 {
		tx.Rx = []radio.FrameRx{}
		return nil
	}
	if cap(d.rxs)-len(d.rxs) < n {
		d.rxs = make([]radio.FrameRx, 0, max(rxSlab, n))
	}
	at := len(d.rxs)
	d.rxs = append(d.rxs, rxs...)
	tx.Rx = d.rxs[at : at+n : at+n]
	return nil
}

// rxMerge decodes a second rx array of one tx object as encoding/json
// does: into the existing elements, member by member, growing the
// slice the way reflect.Value.Grow does and exposing any elements a
// shorter earlier array left behind within its capacity.
func (d *decoder) rxMerge(tx *radio.FrameTx) error {
	s := tx.Rx
	if !d.rxHeap {
		// A slab slice: rebuild the capacity encoding/json's one
		// element at a time growth gave it.
		g := []radio.FrameRx{}
		for i := range s {
			g = append(g, s[i])
		}
		s = g
		d.rxHeap = true
	}
	d.pos++
	i := 0
	for first := true; ; first = false {
		done, err := d.elem(first)
		if err != nil {
			tx.Rx = s
			return err
		}
		if done {
			break
		}
		if i >= cap(s) {
			s = append(s, radio.FrameRx{})
		} else if i >= len(s) {
			s = s[:i+1]
		}
		if err := d.rxElem(&s[i]); err != nil {
			tx.Rx = s
			return err
		}
		i++
	}
	if i == 0 {
		s = []radio.FrameRx{}
	}
	tx.Rx = s[:i]
	return nil
}

func (d *decoder) rxElem(rx *radio.FrameRx) error {
	if ok, err := d.object("tx.rx"); !ok {
		return err
	}
	for first := true; ; first = false {
		key, done, err := d.key(first)
		if err != nil || done {
			return err
		}
		switch rxField(key) {
		case 0:
			err = d.strField(&rx.Dst, "tx.rx.dst")
		case 1:
			err = d.int64Field((*int64)(&rx.Begin), "tx.rx.begin")
		case 2:
			err = d.int64Field((*int64)(&rx.End), "tx.rx.end")
		case 3:
			err = d.float64Field(&rx.RSSI, "tx.rx.rssi")
		case 4:
			err = d.strField(&rx.Fx, "tx.rx.fx")
		case 5:
			err = d.strField(&rx.Out, "tx.rx.out")
		case 6:
			err = d.boolField(&rx.FCSOK, "tx.rx.fcs")
		case 7:
			err = d.strField(&rx.Drop, "tx.rx.drop")
		case 8:
			err = d.boolField(&rx.Consulted, "tx.rx.consulted")
		default:
			err = d.skip(4)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) ccaValue(rec *Record) error {
	if ok, err := d.object("cca"); !ok {
		rec.CCA = nil
		return err
	}
	if rec.CCA == nil {
		rec.CCA = take(&d.ccas, ccaSlab)
	}
	cca := rec.CCA
	for first := true; ; first = false {
		key, done, err := d.key(first)
		if err != nil || done {
			return err
		}
		switch ccaField(key) {
		case 0:
			err = d.strField(&cca.Src, "cca.src")
		case 1:
			err = d.int64Field((*int64)(&cca.At), "cca.at")
		case 2:
			err = d.boolField(&cca.Busy, "cca.busy")
		default:
			err = d.skip(2)
		}
		if err != nil {
			return err
		}
	}
}
