// Package binenc is the one byte-level encoding idiom of AnKerDB: a
// fixed-width little-endian append encoder and a bounds-checked cursor
// decoder. WAL records, schema-log records and every replication /
// session wire message are built from these primitives, so bytes on
// disk and bytes on the wire share one set of rules: integers are
// fixed-width little-endian, a string is a u32 length followed by its
// bytes, and a decoder never trusts a length it has not checked against
// the bytes actually present.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
)

// ErrTruncated is the error a Decoder latches when a read runs past the
// end of its input (or a count claims more elements than the remaining
// bytes could hold).
var ErrTruncated = errors.New("binenc: truncated payload")

// Encoder appends little-endian fields to B. Seed B with a reused
// buffer's [:0] to encode without allocating.
type Encoder struct{ B []byte }

func (e *Encoder) U8(v uint8)   { e.B = append(e.B, v) }
func (e *Encoder) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Encoder) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }

// Bool appends v as one byte (1 or 0).
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str appends s as a u32 length and its bytes.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.B = append(e.B, s...)
}

// Decoder consumes little-endian fields from B, latching the first
// bounds error in Err instead of panicking on truncated input; after an
// error every read returns the zero value.
type Decoder struct {
	B   []byte
	Err error
}

// take returns the next n bytes, or nil after latching ErrTruncated.
func (d *Decoder) take(n int) []byte {
	if d.Err != nil || len(d.B) < n {
		if d.Err == nil {
			d.Err = ErrTruncated
		}
		return nil
	}
	b := d.B[:n]
	d.B = d.B[n:]
	return b
}

func (d *Decoder) U8() uint8 {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *Decoder) U32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *Decoder) U64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Bool reads one byte; any non-zero value is true.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Str reads a u32 length and that many bytes.
func (d *Decoder) Str() string {
	n := d.U32()
	if d.Err == nil && uint64(n) > uint64(len(d.B)) {
		d.Err = ErrTruncated
		return ""
	}
	return string(d.take(int(n)))
}

// Count reads a u32 element count and checks it against the bytes
// left: each element takes at least elemSize (>= 1) bytes, so a larger
// count is corruption, not a big message — the caller may allocate
// Count elements without trusting the prefix. Returns 0 after an error.
func (d *Decoder) Count(elemSize int) int {
	n := d.U32()
	if d.Err == nil && uint64(n)*uint64(elemSize) > uint64(len(d.B)) {
		d.Err = ErrTruncated
	}
	if d.Err != nil {
		return 0
	}
	return int(n)
}

// Codec walks one message layout in either direction: with E set every
// visited field is appended, with D set it is filled from the input.
// A message states its layout once, as a sequence of visits, so it can
// never encode what it would not decode.
type Codec struct {
	E *Encoder
	D *Decoder
}

// Fail marks the input malformed (a decode-side verdict; the first
// error wins, and it is a no-op while encoding).
func (c Codec) Fail(err error) {
	if c.D != nil && c.D.Err == nil {
		c.D.Err = err
	}
}

// Integer is any field type the fixed-width visits carry.
type Integer interface {
	~int | ~int64 | ~uint8 | ~uint64
}

// U8 visits p as one byte.
func U8[T Integer](c Codec, p *T) {
	if c.E != nil {
		c.E.U8(uint8(*p))
	} else {
		*p = T(c.D.U8())
	}
}

// U32 visits p as four bytes.
func U32[T Integer](c Codec, p *T) {
	if c.E != nil {
		c.E.U32(uint32(*p))
	} else {
		*p = T(c.D.U32())
	}
}

// U64 visits p as eight bytes (signed types in two's complement).
func U64[T Integer](c Codec, p *T) {
	if c.E != nil {
		c.E.U64(uint64(*p))
	} else {
		*p = T(c.D.U64())
	}
}

// Bool visits p as one byte.
func (c Codec) Bool(p *bool) {
	if c.E != nil {
		c.E.Bool(*p)
	} else {
		*p = c.D.Bool()
	}
}

// Str visits p as a u32 length and its bytes.
func (c Codec) Str(p *string) {
	if c.E != nil {
		c.E.Str(*p)
	} else {
		*p = c.D.Str()
	}
}

// Len visits a list length: it appends n when encoding and returns the
// bounds-checked count (see Decoder.Count) when decoding.
func (c Codec) Len(n, elemSize int) int {
	if c.E != nil {
		c.E.U32(uint32(n))
		return n
	}
	return c.D.Count(elemSize)
}

// Struct visits every exported leaf of the struct p points to, in
// declaration order, behind a u32 count of those leaves: integers
// (time.Duration included) as eight bytes, bools as one, strings as
// Str, fixed arrays and nested structs element by element. The layout
// is the Go type itself, so a struct that grows needs no codec edit; a
// decoder whose type has a different leaf count fails instead of
// misreading. It panics on a leaf of any other kind (a programming
// error, not an input error).
func Struct(c Codec, p any) {
	v := reflect.ValueOf(p).Elem()
	n := leaves(v.Type())
	got := n
	if U32(c, &got); c.D != nil && got != n {
		c.Fail(fmt.Errorf("struct of %d leaves, %s has %d", got, v.Type(), n))
		return
	}
	visit(c, v)
}

// leaves counts the leaves Struct visits in a value of type t.
func leaves(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).IsExported() {
				n += leaves(t.Field(i).Type)
			}
		}
		return n
	case reflect.Array:
		return t.Len() * leaves(t.Elem())
	}
	return 1
}

func visit(c Codec, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				visit(c, v.Field(i))
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			visit(c, v.Index(i))
		}
	case reflect.Bool:
		b := v.Bool()
		c.Bool(&b)
		v.SetBool(b)
	case reflect.String:
		s := v.String()
		c.Str(&s)
		v.SetString(s)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := v.Int()
		U64(c, &x)
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := v.Uint()
		U64(c, &x)
		v.SetUint(x)
	default:
		panic(fmt.Sprintf("binenc: Struct cannot visit a %s", v.Type()))
	}
}
