package analysis

import (
	"bytes"
	"testing"
)

type testFact struct {
	Tainted bool
	Chain   []string
}

func (*testFact) AFact() {}

type otherFact struct{ N int }

func (*otherFact) AFact() {}

func init() {
	RegisterFact(&testFact{})
	RegisterFact(&otherFact{})
}

// TestFactGobRoundTrip pins the facts wire format: a set survives
// Encode/Decode with every entry intact, distinct fact types on the
// same object stay distinct, and the encoding is byte-deterministic
// regardless of insertion order — the property the fact cache's
// content hashing relies on.
func TestFactGobRoundTrip(t *testing.T) {
	s := NewFactSet("politewifi/internal/rt")
	s.Put("Poll", &testFact{Tainted: true, Chain: []string{"Poll", "time.Now at internal/rt/rt.go:12"}})
	s.Put("Poll", &otherFact{N: 7})
	s.Put("(*Timer).Fire", &testFact{Tainted: false})

	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeFactSet("politewifi/internal/rt", data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 {
		t.Fatalf("round trip kept %d facts, want 3", back.Len())
	}

	var tf testFact
	if !back.Get("Poll", &tf) || !tf.Tainted || len(tf.Chain) != 2 {
		t.Errorf("testFact on Poll did not round trip: %+v", tf)
	}
	if tf.Chain[1] != "time.Now at internal/rt/rt.go:12" {
		t.Errorf("chain corrupted: %q", tf.Chain[1])
	}
	var of otherFact
	if !back.Get("Poll", &of) || of.N != 7 {
		t.Errorf("otherFact on Poll did not round trip: %+v", of)
	}
	var mf testFact
	if !back.Get("(*Timer).Fire", &mf) || mf.Tainted {
		t.Errorf("method fact did not round trip: %+v", mf)
	}
	if back.Get("Missing", &tf) {
		t.Error("Get on missing key reported true")
	}

	// Insertion order must not leak into the encoding.
	s2 := NewFactSet("politewifi/internal/rt")
	s2.Put("(*Timer).Fire", &testFact{Tainted: false})
	s2.Put("Poll", &otherFact{N: 7})
	s2.Put("Poll", &testFact{Tainted: true, Chain: []string{"Poll", "time.Now at internal/rt/rt.go:12"}})
	data2, err := s2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("encoding is not deterministic across insertion orders")
	}
}

// TestDecodeEmptyFacts pins that a zero-length payload decodes to an
// empty set rather than an error.
func TestDecodeEmptyFacts(t *testing.T) {
	s, err := DecodeFactSet("politewifi/internal/oui", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("empty payload decoded to %d facts", s.Len())
	}
}

// TestFactSetFreeze pins that a frozen set rejects writes — imported
// dependency sets are shared across concurrent package analyses and
// must be immutable.
func TestFactSetFreeze(t *testing.T) {
	s := NewFactSet("p")
	s.Put("F", &testFact{})
	s.Freeze()
	defer func() {
		if recover() == nil {
			t.Error("Put on frozen set did not panic")
		}
	}()
	s.Put("G", &testFact{})
}
