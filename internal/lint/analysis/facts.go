package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// Fact is a serializable datum an analyzer attaches to a top-level
// object (a function, usually) so that analyses of *importing*
// packages can see what was learned about the object's package — the
// same contract as golang.org/x/tools/go/analysis facts, sized down
// to what politevet needs. Concrete fact types must be pointers,
// gob-encodable, and registered with RegisterFact before any encode
// or decode.
type Fact interface {
	AFact() // marker method
}

var (
	factTypesMu sync.Mutex
	factTypes   = make(map[string]reflect.Type)
)

// RegisterFact registers a concrete fact type for gob transport.
// Safe to call from init; duplicate registrations of the same type
// are no-ops.
func RegisterFact(f Fact) {
	t := reflect.TypeOf(f)
	factTypesMu.Lock()
	defer factTypesMu.Unlock()
	if _, ok := factTypes[t.String()]; ok {
		return
	}
	factTypes[t.String()] = t
	gob.Register(f)
}

// ObjectKey returns a stable, package-relative key for a top-level
// object: "F" for a function, "(T).M" / "(*T).M" for methods, or the
// plain name for vars/consts/types. The second result is the object's
// package path ("" for builtins and universe objects, in which case
// ok is false — such objects cannot carry facts).
func ObjectKey(obj types.Object) (key, pkgPath string, ok bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	pkgPath = obj.Pkg().Path()
	if fn, isFn := obj.(*types.Func); isFn {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			rt := sig.Recv().Type()
			ptr := ""
			if p, isPtr := rt.(*types.Pointer); isPtr {
				rt = p.Elem()
				ptr = "*"
			}
			named, isNamed := rt.(*types.Named)
			if !isNamed {
				return "", "", false // method on unnamed receiver (interface literal etc.)
			}
			return "(" + ptr + named.Obj().Name() + ")." + fn.Name(), pkgPath, true
		}
		return fn.Name(), pkgPath, true
	}
	return obj.Name(), pkgPath, true
}

// TrimTestVariant strips the test-variant suffix from an import path:
// "politewifi/internal/world [politewifi/internal/world.test]"
// becomes "politewifi/internal/world". Facts are always keyed by the
// plain path, because that is the identity dependents import under.
func TrimTestVariant(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// factKey identifies one fact: the object's package-relative key plus
// the concrete fact type.
type factKey struct {
	object string
	typ    string // reflect type string, e.g. "*purity.Sig"
}

// FactSet holds the facts of one package. Writes happen during that
// package's own analysis; after Freeze the set is read-only and safe
// for concurrent readers.
type FactSet struct {
	PkgPath string

	mu     sync.Mutex
	frozen bool
	m      map[factKey]Fact
}

// NewFactSet returns an empty, writable fact set for pkgPath.
func NewFactSet(pkgPath string) *FactSet {
	return &FactSet{PkgPath: pkgPath, m: make(map[factKey]Fact)}
}

// Freeze marks the set read-only; subsequent Put calls panic.
func (s *FactSet) Freeze() {
	s.mu.Lock()
	s.frozen = true
	s.mu.Unlock()
}

// Put stores fact for the object key (overwriting any previous fact
// of the same concrete type).
func (s *FactSet) Put(objectKey string, fact Fact) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		panic("analysis: Put on frozen FactSet " + s.PkgPath)
	}
	s.m[factKey{objectKey, reflect.TypeOf(fact).String()}] = fact
}

// Get copies the fact stored under objectKey with fact's concrete
// type into fact (which must be a pointer), reporting whether one was
// found.
func (s *FactSet) Get(objectKey string, fact Fact) bool {
	s.mu.Lock()
	stored, ok := s.m[factKey{objectKey, reflect.TypeOf(fact).String()}]
	s.mu.Unlock()
	if !ok {
		return false
	}
	dv := reflect.ValueOf(fact).Elem()
	dv.Set(reflect.ValueOf(stored).Elem())
	return true
}

// Len reports the number of stored facts.
func (s *FactSet) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// factEntry is the wire form of one fact.
type factEntry struct {
	Object string
	Fact   Fact
}

// Encode serializes the set as gob. Entries are sorted by (object,
// fact type) so the byte stream is deterministic for identical sets —
// the property the fact cache's content hashing and the certificate's
// byte-stability rest on.
func (s *FactSet) Encode() ([]byte, error) {
	s.mu.Lock()
	keys := make([]factKey, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].object != keys[j].object {
			return keys[i].object < keys[j].object
		}
		return keys[i].typ < keys[j].typ
	})
	entries := make([]factEntry, 0, len(keys))
	for _, k := range keys {
		entries = append(entries, factEntry{Object: k.object, Fact: s.m[k]})
	}
	s.mu.Unlock()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(entries); err != nil {
		return nil, fmt.Errorf("analysis: encoding facts of %s: %v", s.PkgPath, err)
	}
	return buf.Bytes(), nil
}

// DecodeFactSet reconstructs a fact set from Encode output. A nil or
// empty payload decodes to an empty set, so a zero-length fact-cache
// entry reads as a package with no facts rather than an error.
func DecodeFactSet(pkgPath string, data []byte) (*FactSet, error) {
	s := NewFactSet(pkgPath)
	if len(data) == 0 {
		return s, nil
	}
	var entries []factEntry
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&entries); err != nil {
		return nil, fmt.Errorf("analysis: decoding facts of %s: %v", pkgPath, err)
	}
	for _, e := range entries {
		if e.Fact == nil {
			continue
		}
		s.m[factKey{e.Object, reflect.TypeOf(e.Fact).String()}] = e.Fact
	}
	return s, nil
}

// Facts is one pass's view of the fact universe: the current
// package's writable set plus the frozen sets of every analyzed
// dependency, keyed by plain import path.
type Facts struct {
	Current  *FactSet
	Imported map[string]*FactSet
}

// NewFacts builds a view for pkgPath over imported dependency sets.
func NewFacts(pkgPath string, imported map[string]*FactSet) *Facts {
	return &Facts{Current: NewFactSet(pkgPath), Imported: imported}
}

// lookupSet resolves the fact set holding facts for pkgPath, which
// may arrive in test-variant form.
func (f *Facts) lookupSet(pkgPath string) *FactSet {
	plain := TrimTestVariant(pkgPath)
	if f.Current != nil && TrimTestVariant(f.Current.PkgPath) == plain {
		return f.Current
	}
	if f.Imported == nil {
		return nil
	}
	return f.Imported[plain]
}

// ExportObjectFact attaches fact to obj, which must belong to the
// pass's own package. Exports against foreign objects are dropped:
// a pass may only speak for the package it analyzed.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.Facts == nil || p.Facts.Current == nil {
		return
	}
	key, pkgPath, ok := ObjectKey(obj)
	if !ok || TrimTestVariant(pkgPath) != TrimTestVariant(p.Facts.Current.PkgPath) {
		return
	}
	p.Facts.Current.Put(key, fact)
}

// HasFactsFor reports whether the fact pass visited pkgPath at all —
// whether a fact set (possibly empty) exists for it. Consumers use
// this to tell "analyzed and found pure" (absent fact in a present
// set) apart from "never analyzed" (absent set), which must stay
// conservative.
func (p *Pass) HasFactsFor(pkgPath string) bool {
	return p.Facts != nil && p.Facts.lookupSet(pkgPath) != nil
}

// ImportObjectFact copies the fact of fact's concrete type attached
// to obj — in this package or any analyzed dependency — into fact,
// reporting whether one exists.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.Facts == nil {
		return false
	}
	key, pkgPath, ok := ObjectKey(obj)
	if !ok {
		return false
	}
	set := p.Facts.lookupSet(pkgPath)
	if set == nil {
		return false
	}
	return set.Get(key, fact)
}
