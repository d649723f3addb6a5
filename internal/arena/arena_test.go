package arena

import "testing"

func TestAllocDisjoint(t *testing.T) {
	a := New()
	x := a.Alloc(16)
	y := a.Alloc(16)
	for i := range x {
		x[i] = 0xaa
	}
	for i := range y {
		y[i] = 0x55
	}
	for i, b := range x {
		if b != 0xaa {
			t.Fatalf("x[%d] clobbered: %#x", i, b)
		}
	}
	if cap(x) != 16 {
		t.Fatalf("cap(x) = %d, want 16 (appends must not overlap neighbours)", cap(x))
	}
}

// footprint reports the total chunk capacity the arena holds; chunks
// are never freed, so this is every byte of chunk it ever allocated.
func footprint(a *Arena) int {
	n := len(a.cur)
	for _, c := range a.spent {
		n += len(c)
	}
	for _, c := range a.spare {
		n += len(c)
	}
	return n
}

func TestChunkReuseAcrossReset(t *testing.T) {
	a := New()
	for i := 0; i < 1000; i++ {
		_ = a.Alloc(200)
	}
	before := footprint(a)
	if before == 0 {
		t.Fatal("no chunks allocated")
	}
	for round := 0; round < 5; round++ {
		a.Reset()
		for i := 0; i < 1000; i++ {
			buf := a.Alloc(200)
			if len(buf) != 200 {
				t.Fatalf("len = %d", len(buf))
			}
		}
	}
	if footprint(a) != before {
		t.Fatalf("footprint grew across identical rounds: %d -> %d", before, footprint(a))
	}
}

func TestOversizedAlloc(t *testing.T) {
	a := New()
	big := a.Alloc(3 * chunkSize)
	if len(big) != 3*chunkSize {
		t.Fatalf("len = %d", len(big))
	}
	small := a.Alloc(8)
	if len(small) != 8 {
		t.Fatalf("len = %d", len(small))
	}
	a.Reset()
	// The oversized chunk is reusable for another oversized request.
	before := footprint(a)
	_ = a.Alloc(3 * chunkSize)
	if footprint(a) != before {
		t.Fatalf("oversized chunk not reused: %d -> %d", before, footprint(a))
	}
}

func BenchmarkAlloc(b *testing.B) {
	a := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%10000 == 0 {
			a.Reset()
		}
		_ = a.Alloc(64)
	}
}
