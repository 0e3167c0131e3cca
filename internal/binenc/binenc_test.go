package binenc

import (
	"errors"
	"math"
	"testing"
)

// rec exercises every Codec visit, so one layout serves both directions.
type rec struct {
	A uint8
	B int
	C int64
	D uint64
	E bool
	F string
	G []int64
}

func (r *rec) wire(x Codec) {
	U8(x, &r.A)
	U32(x, &r.B)
	U64(x, &r.C)
	U64(x, &r.D)
	x.Bool(&r.E)
	x.Str(&r.F)
	if n := x.Len(len(r.G), 8); x.D != nil {
		r.G = make([]int64, n)
	}
	for i := range r.G {
		U64(x, &r.G[i])
	}
}

func TestCodecRoundTrip(t *testing.T) {
	want := rec{A: 255, B: math.MaxUint32, C: math.MinInt64, D: math.MaxUint64, E: true, F: "\xff\x00é", G: []int64{-1, 0, 1}}
	var e Encoder
	want.wire(Codec{E: &e})
	var got rec
	d := Decoder{B: e.B}
	got.wire(Codec{D: &d})
	if d.Err != nil || len(d.B) != 0 {
		t.Fatalf("decode: err %v, %d bytes left", d.Err, len(d.B))
	}
	if got.A != want.A || got.B != want.B || got.C != want.C || got.D != want.D || got.E != want.E || got.F != want.F ||
		len(got.G) != 3 || got.G[0] != -1 || got.G[2] != 1 {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	// Every strict prefix is a truncation: latched, never a panic, and
	// every later read returns zero values.
	for n := 0; n < len(e.B); n++ {
		d := Decoder{B: e.B[:n]}
		(&rec{}).wire(Codec{D: &d})
		if !errors.Is(d.Err, ErrTruncated) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrTruncated", n, d.Err)
		}
	}
}

func TestCountAndFail(t *testing.T) {
	// A count is checked against the bytes present before anyone
	// allocates for it.
	var e Encoder
	e.U32(math.MaxUint32)
	e.U64(0)
	d := Decoder{B: e.B}
	if n := d.Count(8); n != 0 || !errors.Is(d.Err, ErrTruncated) {
		t.Fatalf("Count = %d, err %v; want 0, ErrTruncated", n, d.Err)
	}
	d = Decoder{B: []byte{0xff, 0xff, 0xff, 0xff, 'x'}}
	if s := d.Str(); s != "" || !errors.Is(d.Err, ErrTruncated) {
		t.Fatalf("Str = %q, err %v; want \"\", ErrTruncated", s, d.Err)
	}
	// Fail keeps the first error and is inert while encoding.
	first, second := errors.New("first"), errors.New("second")
	d = Decoder{}
	x := Codec{D: &d}
	x.Fail(first)
	x.Fail(second)
	if d.Err != first {
		t.Fatalf("Fail kept %v, want the first error", d.Err)
	}
	Codec{E: &e}.Fail(first)
}
