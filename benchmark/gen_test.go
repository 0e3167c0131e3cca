package main

import "testing"

func TestSameSeedSameOpStream(t *testing.T) {
	gen := func(seed int64) *opGen { return newOpGen(seed, saltWriter, 4096, 4096, 7, 10) }
	a, b, c := streamHash(gen(1), 5000), streamHash(gen(1), 5000), streamHash(gen(2), 5000)
	if a != b {
		t.Fatalf("same seed gave different op streams: %x vs %x", a, b)
	}
	if a == c {
		t.Fatalf("seeds 1 and 2 gave the same op stream %x", a)
	}
	if d := streamHash(newOpGen(1, saltWriter+1, 4096, 4096, 7, 10), 5000); d == a {
		t.Fatal("two writers of one seed share an op stream")
	}
}

func TestOpsStayInsideThePartition(t *testing.T) {
	g := newOpGen(3, saltWriter, 8192, 4096, 7, 10)
	audits := 0
	for i := 0; i < 20000; i++ {
		o := g.next()
		if o.a < 8192 || o.a >= 12288 || o.b < 8192 || o.b >= 12288 {
			t.Fatalf("op %d leaves the partition: rows %d, %d", i, o.a, o.b)
		}
		if o.a == o.b || o.c1 == o.c2 || o.c1 >= 7 || o.c2 >= 7 || o.x < 1 || o.x > 10 {
			t.Fatalf("op %d malformed: %+v", i, o)
		}
		if o.kind == opAudit {
			audits++
		}
	}
	if audits < 1600 || audits > 2400 {
		t.Fatalf("%d audits in 20000 ops, want about 10 %%", audits)
	}
}

func TestLoadValuesDeriveFromSeed(t *testing.T) {
	a, b, c := loadValues(1, 0, 100), loadValues(1, 0, 100), loadValues(2, 0, 100)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different load values")
		}
		if a[i] < 1000 || a[i] >= 2000 {
			t.Fatalf("value %d out of range", a[i])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds, same load values")
	}
}
