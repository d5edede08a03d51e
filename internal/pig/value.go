// Package pig implements a Pig-like dataflow layer on top of the
// MapReduce engine: typed tuples, spillable data bags managed by a
// memory manager that spills (portions of) large bags under memory
// pressure (§2.1.3 of the paper), group-by query plans compiled to
// MapReduce jobs, and the evaluation's two holistic UDFs — frequent
// anchortext (TopK) and spam-score quantiles.
package pig

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Value is one tuple field: string, int64, float64, or a nested Tuple.
type Value interface{}

// Tuple is an ordered list of fields.
type Tuple []Value

// Field type tags in the serialized form.
const (
	tagString = 1
	tagInt    = 2
	tagFloat  = 3
	tagTuple  = 4
)

// AppendValue serializes one value onto dst.
func AppendValue(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case string:
		return append(AppendStringHeader(dst, len(x)), x...)
	case int64:
		dst = append(dst, tagInt)
		return binary.LittleEndian.AppendUint64(dst, uint64(x))
	case float64:
		return AppendFloat(dst, x)
	case Tuple:
		dst = AppendTupleHeader(dst, len(x))
		for _, f := range x {
			dst = AppendValue(dst, f)
		}
		return dst
	}
	panic(fmt.Sprintf("pig: unsupported value type %T", v))
}

// AppendStringHeader starts a string field of n bytes on dst; the caller
// appends the n bytes. With AppendFloat and AppendTupleHeader it lets a
// producer encode a record without building its Tuple first.
func AppendStringHeader(dst []byte, n int) []byte {
	return binary.AppendUvarint(append(dst, tagString), uint64(n))
}

// AppendFloat serializes a float64 field.
func AppendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(append(dst, tagFloat), math.Float64bits(f))
}

// AppendTupleHeader starts a tuple of n fields on dst; the caller
// appends the n fields.
func AppendTupleHeader(dst []byte, n int) []byte {
	return binary.AppendUvarint(append(dst, tagTuple), uint64(n))
}

// AppendTuple serializes a tuple onto dst.
func AppendTuple(dst []byte, t Tuple) []byte { return AppendValue(dst, t) }

// maxDepth bounds tuple nesting in the decoder, so hostile input cannot
// drive it into unbounded recursion. Pig records nest two or three deep.
const maxDepth = 64

// DecodeTuple reads a tuple serialized by AppendTuple. It panics on
// malformed input (see decodeTuple for what is rejected).
//
// The decoded tuple shares two allocations across all its fields: one
// string copy of data, which every string field is a slice of, and one
// []Value backing for the slots of the tuple and every nested tuple.
// Retaining any string field therefore retains the whole record's
// bytes; data itself is not retained and may be reused by the caller.
func DecodeTuple(data []byte) Tuple {
	t, err := decodeTuple(data)
	if err != nil {
		panic(err)
	}
	return t
}

// decodeTuple is the checked decoder behind DecodeTuple. A skip pass
// validates the whole input and counts the tuple slots before anything
// is allocated, so a slot count read from hostile bytes can never size
// an allocation: every slot takes at least one byte, and a count larger
// than the bytes that remain is rejected. It accepts exactly the
// encodings AppendTuple produces — a top-level tuple, minimal varints,
// no trailing bytes — so AppendTuple(nil, decodeTuple(data)) equals
// data whenever the error is nil.
func decodeTuple(data []byte) (Tuple, error) {
	if len(data) == 0 || data[0] != tagTuple {
		return nil, fmt.Errorf("pig: serialized value is not a tuple")
	}
	slots, end, err := skipValue(data, 0, 0)
	if err != nil {
		return nil, err
	}
	if end != len(data) {
		return nil, fmt.Errorf("pig: %d trailing bytes after tuple", len(data)-end)
	}
	d := decoder{data: data, s: string(data), slots: make([]Value, slots)}
	t, _ := d.tuple(1)
	return t, nil
}

// uvarint reads a minimal unsigned varint at data[off:] and checks the
// value against the bytes left after it.
func uvarint(data []byte, off int) (n, end int, err error) {
	x, sz := binary.Uvarint(data[off:])
	if sz <= 0 {
		return 0, 0, fmt.Errorf("pig: bad varint at %d", off)
	}
	if sz > 1 && data[off+sz-1] == 0 {
		return 0, 0, fmt.Errorf("pig: non-minimal varint at %d", off)
	}
	end = off + sz
	if x > uint64(len(data)-end) {
		return 0, 0, fmt.Errorf("pig: length %d at %d exceeds the %d bytes left", x, off, len(data)-end)
	}
	return int(x), end, nil
}

// skipValue validates the value at data[off:] and returns the number of
// tuple slots it needs (its own and its nested tuples') and the offset
// past it.
func skipValue(data []byte, off, depth int) (slots, end int, err error) {
	if off >= len(data) {
		return 0, 0, fmt.Errorf("pig: truncated value at %d", off)
	}
	tag := data[off]
	off++
	switch tag {
	case tagString:
		n, end, err := uvarint(data, off)
		return 0, end + n, err
	case tagInt, tagFloat:
		if len(data)-off < 8 {
			return 0, 0, fmt.Errorf("pig: truncated number at %d", off)
		}
		return 0, off + 8, nil
	case tagTuple:
		if depth >= maxDepth {
			return 0, 0, fmt.Errorf("pig: tuples nested deeper than %d", maxDepth)
		}
		n, off, err := uvarint(data, off)
		if err != nil {
			return 0, 0, err
		}
		slots = n
		for i := 0; i < n; i++ {
			s, next, err := skipValue(data, off, depth+1)
			if err != nil {
				return 0, 0, err
			}
			slots += s
			off = next
		}
		return slots, off, nil
	}
	return 0, 0, fmt.Errorf("pig: bad tag %d at %d", tag, off-1)
}

// decoder builds values from input skipValue has validated: strings are
// sliced out of s, the one string copy of data, and tuples are carved
// from slots in order.
type decoder struct {
	data  []byte
	s     string
	slots []Value
}

func (d *decoder) value(off int) (Value, int) {
	tag := d.data[off]
	off++
	switch tag {
	case tagString:
		n, sz := binary.Uvarint(d.data[off:])
		off += sz
		return d.s[off : off+int(n)], off + int(n)
	case tagInt:
		return int64(binary.LittleEndian.Uint64(d.data[off:])), off + 8
	case tagFloat:
		return math.Float64frombits(binary.LittleEndian.Uint64(d.data[off:])), off + 8
	}
	return d.tuple(off)
}

// tuple reads a tuple's field count at data[off:] and then its fields.
func (d *decoder) tuple(off int) (Tuple, int) {
	n, sz := binary.Uvarint(d.data[off:])
	off += sz
	t := Tuple(d.slots[:n:n])
	d.slots = d.slots[n:]
	for i := range t {
		t[i], off = d.value(off)
	}
	return t, off
}

// Compare orders two values of the same dynamic type (numbers compare
// across int64/float64); tuples compare lexicographically.
func Compare(a, b Value) int {
	switch x := a.(type) {
	case string:
		y := b.(string)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case int64:
		return compareFloat(float64(x), toFloat(b))
	case float64:
		return compareFloat(x, toFloat(b))
	case Tuple:
		y := b.(Tuple)
		for i := 0; i < len(x) && i < len(y); i++ {
			if c := Compare(x[i], y[i]); c != 0 {
				return c
			}
		}
		return len(x) - len(y)
	}
	panic(fmt.Sprintf("pig: cannot compare %T", a))
}

func toFloat(v Value) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	panic(fmt.Sprintf("pig: not a number: %T", v))
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// String returns field i as a string.
func (t Tuple) String(i int) string { return t[i].(string) }

// Int returns field i as an int64.
func (t Tuple) Int(i int) int64 { return t[i].(int64) }

// Float returns field i as a float64.
func (t Tuple) Float(i int) float64 { return t[i].(float64) }

// Nested returns field i as a nested tuple.
func (t Tuple) Nested(i int) Tuple { return t[i].(Tuple) }
