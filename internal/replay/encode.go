package replay

import (
	"encoding/base64"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"

	"politewifi/internal/radio"
)

// appendRecord appends rec's JSON encoding to b, byte for byte what
// json.Marshal(rec) returns: struct-tag field order and omitempty
// rules, standard base64 for Data ("null" when nil), encoding/json's
// float format and its HTML-safe string escaping. A NaN or infinite
// float is an error, as it is for json.Marshal; b's contents are then
// unspecified.
func appendRecord(b []byte, rec *Record) ([]byte, error) {
	b = append(b, `{"stop":`...)
	b = strconv.AppendInt(b, int64(rec.Stop), 10)
	if tx := rec.TX; tx != nil {
		var err error
		if b, err = appendTx(append(b, `,"tx":`...), tx); err != nil {
			return b, err
		}
	}
	if cca := rec.CCA; cca != nil {
		b = append(b, `,"cca":{"src":`...)
		b = appendString(b, cca.Src)
		b = append(b, `,"at":`...)
		b = strconv.AppendInt(b, int64(cca.At), 10)
		if cca.Busy {
			b = append(b, `,"busy":true`...)
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

func appendTx(b []byte, tx *radio.FrameTx) ([]byte, error) {
	var err error
	b = append(b, `{"src":`...)
	b = appendString(b, tx.Src)
	b = append(b, `,"start":`...)
	b = strconv.AppendInt(b, int64(tx.Start), 10)
	b = append(b, `,"end":`...)
	b = strconv.AppendInt(b, int64(tx.End), 10)
	b = append(b, `,"rate":{"Mbps":`...)
	if b, err = appendFloat(b, tx.Rate.Mbps); err != nil {
		return b, err
	}
	b = append(b, `,"Mod":`...)
	b = strconv.AppendInt(b, int64(tx.Rate.Mod), 10)
	b = append(b, `,"NDBPS":`...)
	b = strconv.AppendInt(b, int64(tx.Rate.NDBPS), 10)
	b = append(b, `,"Basic":`...)
	b = strconv.AppendBool(b, tx.Rate.Basic)
	b = append(b, `,"HT":`...)
	b = strconv.AppendBool(b, tx.Rate.HT)
	b = append(b, `},"data":`...)
	if tx.Data == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '"')
		b = base64.StdEncoding.AppendEncode(b, tx.Data)
		b = append(b, '"')
	}
	if tx.Label != "" {
		b = appendString(append(b, `,"label":`...), tx.Label)
	}
	if tx.Exchange != 0 {
		b = strconv.AppendUint(append(b, `,"exchange":`...), tx.Exchange, 10)
	}
	if tx.BelowSens != 0 {
		b = strconv.AppendInt(append(b, `,"below_sens":`...), int64(tx.BelowSens), 10)
	}
	if len(tx.Rx) > 0 {
		b = append(b, `,"rx":[`...)
		for i := range tx.Rx {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendRx(b, &tx.Rx[i]); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

func appendRx(b []byte, rx *radio.FrameRx) ([]byte, error) {
	var err error
	b = append(b, `{"dst":`...)
	b = appendString(b, rx.Dst)
	b = append(b, `,"begin":`...)
	b = strconv.AppendInt(b, int64(rx.Begin), 10)
	b = append(b, `,"end":`...)
	b = strconv.AppendInt(b, int64(rx.End), 10)
	b = append(b, `,"rssi":`...)
	if b, err = appendFloat(b, rx.RSSI); err != nil {
		return b, err
	}
	if rx.Fx != "" {
		b = appendString(append(b, `,"fx":`...), rx.Fx)
	}
	if rx.Out != "" {
		b = appendString(append(b, `,"out":`...), rx.Out)
	}
	if rx.FCSOK {
		b = append(b, `,"fcs":true`...)
	}
	if rx.Drop != "" {
		b = appendString(append(b, `,"drop":`...), rx.Drop)
	}
	if rx.Consulted {
		b = append(b, `,"consulted":true`...)
	}
	return append(b, '}'), nil
}

// appendFloat formats f as encoding/json does: like ES6 number to
// string, 'f' format unless |f| is below 1e-6 or at least 1e21, with a
// single-digit exponent left unpadded; -0 stays "-0".
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json
// writes one with HTML escaping on: '"', '\\', control characters,
// '<', '>' and '&' escaped, U+2028 and U+2029 written as \u escapes,
// and each byte of invalid UTF-8 replaced by \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
