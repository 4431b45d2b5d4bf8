package telemetry

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Profile is the part of a runtime/pprof profile.proto that cycle
// attribution reads: samples with their stacks and string labels, and the
// locations those stacks name, inlined frames expanded.
type Profile struct {
	Sample   []Sample
	Location []Location
}

// Sample is one aggregated stack.
type Sample struct {
	Location []*Location // leaf first
	Value    []int64     // a CPU profile's are {samples, nanoseconds}
	Label    [][2]string // labels as {key, value}; a numeric label's value is ""
}

// Location is one program counter and the functions it stands for, fully
// qualified, the innermost inlined callee first and its caller last.
type Location struct {
	ID   uint64
	Line []string
}

// ProfileError reports malformed profile bytes.
type ProfileError struct {
	Off    int // byte offset into the protobuf; 0 for the gzip layer's errors
	Reason string
}

func (e *ProfileError) Error() string {
	return fmt.Sprintf("telemetry: malformed profile at byte %d: %s", e.Off, e.Reason)
}

// ParseProfile decodes a profile.proto, gzip'd as runtime/pprof writes it
// or not. Every reference a sample or location makes must resolve; any
// malformed input returns a *ProfileError. A gzip'd profile may inflate to
// 8× its size plus 64 KiB, so hostile input allocates in proportion to its
// own size; profiles the runtime writes (at BestSpeed) inflate about 2×.
func ParseProfile(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err == nil {
			limit := 8*len(data) + 64<<10
			data, err = io.ReadAll(io.LimitReader(zr, int64(limit)+1))
			if err == nil && len(data) > limit {
				err = fmt.Errorf("inflates past %d bytes", limit)
			}
		}
		if err != nil {
			return nil, &ProfileError{0, "gzip: " + err.Error()}
		}
	}
	return parseProto(data)
}

// pb walks the protobuf fields in data[pos:end], checking every length
// against what remains before it becomes a slice bound (no int overflow
// on 32-bit targets). A walk and its sub-walks share one error.
type pb struct {
	data     []byte
	pos, end int
	err      **ProfileError
}

// field is one protobuf field: a varint's value, or a length-delimited
// field's body.
type field struct {
	num, wire int
	val       uint64
	body      pb
}

func (d *pb) fail(reason string) bool {
	if *d.err == nil {
		*d.err = &ProfileError{d.pos, reason}
	}
	return false
}

func (d *pb) uvarint() uint64 {
	v, n := binary.Uvarint(d.data[d.pos:d.end])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.pos += n
	return v
}

// next reads the next field, leaving d past it.
func (d *pb) next() (f field, ok bool) {
	if *d.err != nil || d.pos >= d.end {
		return f, false
	}
	key := d.uvarint()
	f.num, f.wire = int(key>>3), int(key&7)
	switch f.wire {
	case 0:
		f.val = d.uvarint()
	case 1, 5:
		n := 8 >> (f.wire / 5)
		if d.end-d.pos < n {
			return f, d.fail("truncated fixed field")
		}
		d.pos += n
	case 2:
		n := d.uvarint()
		if n > uint64(d.end-d.pos) {
			return f, d.fail("length past end")
		}
		f.body = pb{d.data, d.pos, d.pos + int(n), d.err}
		d.pos += int(n)
	default:
		return f, d.fail(fmt.Sprintf("wire type %d", f.wire))
	}
	return f, *d.err == nil
}

func (d *pb) varint(f field) uint64 {
	if f.wire != 0 {
		d.fail("scalar field not a varint")
	}
	return f.val
}

// message returns f's body; for a field that is not length-delimited, it
// records the error and returns an empty walk sharing it.
func (d *pb) message(f field) pb {
	if f.wire != 2 {
		d.fail("message not length-delimited")
		return pb{d.data, d.pos, d.pos, d.err}
	}
	return f.body
}

// nextMessage skips to the next field numbered num and returns its body.
func (d *pb) nextMessage(num int) (pb, bool) {
	for f, ok := d.next(); ok; f, ok = d.next() {
		if f.num == num {
			return d.message(f), *d.err == nil
		}
	}
	return pb{}, false
}

// count returns how many fields numbered num d holds, without moving d:
// tables are allocated once at their final size, as hostile input could
// make append-grown ones cost several times its own size.
func (d pb) count(num int) (n int) {
	for f, ok := d.next(); ok; f, ok = d.next() {
		if f.num == num {
			n++
		}
	}
	return n
}

// repeated appends a repeated varint field of d's, packed or not.
func repeated[T uint64 | int64](d *pb, dst []T, f field) []T {
	if f.wire != 2 {
		return append(dst, T(d.varint(f)))
	}
	dst = slices.Grow(dst, f.body.end-f.body.pos) // a varint is at least a byte
	for f.body.pos < f.body.end && *d.err == nil {
		dst = append(dst, T(f.body.uvarint()))
	}
	return dst
}

// str resolves a string-table index.
func (d *pb) str(strs []string, f field) string {
	if i := d.varint(f); i < uint64(len(strs)) {
		return strs[i]
	}
	d.fail("string index out of range")
	return ""
}

func resolve[V any](d *pb, m map[uint64]V, id uint64) (V, bool) {
	v, ok := m[id]
	return v, ok || d.fail(fmt.Sprintf("unknown id %d", id))
}

func unique[V any](d *pb, m map[uint64]V, id uint64) {
	if _, dup := m[id]; dup {
		d.fail(fmt.Sprintf("duplicate id %d", id))
	}
}

// profile.proto's Profile field numbers.
const (
	fSample   = 2
	fLocation = 4
	fFunction = 5
	fString   = 6
)

// parseProto decodes the protobuf in passes over its top-level fields —
// strings, then functions, then locations, then samples — so each pass
// resolves its references against tables already complete, whatever order
// the encoder wrote them in.
func parseProto(data []byte) (*Profile, error) {
	var err *ProfileError
	top := pb{data, 0, len(data), &err}
	strs := make([]string, 0, top.count(fString))
	d := top
	for m, ok := d.nextMessage(fString); ok; m, ok = d.nextMessage(fString) {
		strs = append(strs, string(data[m.pos:m.end]))
	}
	if len(strs) == 0 || strs[0] != "" {
		d.fail(`string table must start with ""`)
	}

	fns := make(map[uint64]string, top.count(fFunction))
	d = top
	for m, ok := d.nextMessage(fFunction); ok; m, ok = d.nextMessage(fFunction) {
		var id uint64
		var name string
		for f, ok := m.next(); ok; f, ok = m.next() {
			switch f.num {
			case 1:
				id = m.varint(f)
			case 2:
				name = m.str(strs, f)
			}
		}
		unique(&m, fns, id)
		fns[id] = name
	}

	p := &Profile{
		Sample:   make([]Sample, 0, top.count(fSample)),
		Location: make([]Location, 0, top.count(fLocation)), // never regrown: locs points into it
	}
	locs := make(map[uint64]*Location, cap(p.Location))
	d = top
	for m, ok := d.nextMessage(fLocation); ok; m, ok = d.nextMessage(fLocation) {
		loc := Location{Line: make([]string, 0, m.count(4))}
		for f, ok := m.next(); ok; f, ok = m.next() {
			switch f.num {
			case 1:
				loc.ID = m.varint(f)
			case 4:
				var id uint64
				l := m.message(f)
				for lf, ok := l.next(); ok; lf, ok = l.next() {
					if lf.num == 1 {
						id = l.varint(lf)
					}
				}
				if name, ok := resolve(&m, fns, id); ok {
					loc.Line = append(loc.Line, name)
				}
			}
		}
		unique(&m, locs, loc.ID)
		p.Location = append(p.Location, loc)
		locs[loc.ID] = &p.Location[len(p.Location)-1]
	}

	var ids []uint64
	var vals []int64
	d = top
	for m, ok := d.nextMessage(fSample); ok; m, ok = d.nextMessage(fSample) {
		s := Sample{Label: make([][2]string, 0, m.count(3))}
		ids, vals = ids[:0], vals[:0]
		for f, ok := m.next(); ok; f, ok = m.next() {
			switch f.num {
			case 1:
				ids = repeated(&m, ids, f)
			case 2:
				vals = repeated(&m, vals, f)
			case 3:
				var kv [2]string
				l := m.message(f)
				for lf, ok := l.next(); ok; lf, ok = l.next() {
					if lf.num == 1 || lf.num == 2 {
						kv[lf.num-1] = l.str(strs, lf)
					}
				}
				s.Label = append(s.Label, kv)
			}
		}
		s.Location = make([]*Location, len(ids))
		for i, id := range ids {
			s.Location[i], _ = resolve(&m, locs, id)
		}
		s.Value = slices.Clone(vals)
		p.Sample = append(p.Sample, s)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}
