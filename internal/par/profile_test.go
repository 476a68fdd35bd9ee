package par

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// profile is the part of a CPU profile the label tests read: each sample's
// stack as function names and its string labels.
type profile struct {
	samples []profileSample
}

type profileSample struct {
	funcs  []string          // functions on the stack, inlined frames included
	labels map[string]string // string-valued pprof labels
}

var errProto = errors.New("malformed profile protobuf")

// parseProfile decodes the gzipped perftools.profiles.Profile protobuf that
// runtime/pprof writes. It reads only the string table, the samples'
// location ids and labels, the locations' lines and the functions' names.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		labels [][2]uint64 // string-table indices of key and value
	}
	var (
		strs     []string
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id → function ids
		funcName = map[uint64]uint64{}   // function id → name index
	)
	err = protoFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s rawSample
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // Sample.location_id, packed or not
					if b == nil {
						s.locs = append(s.locs, v)
						return nil
					}
					for len(b) > 0 {
						x, n := binary.Uvarint(b)
						if n <= 0 {
							return errProto
						}
						s.locs = append(s.locs, x)
						b = b[n:]
					}
				case 3: // Sample.label
					var kv [2]uint64
					err := protoFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 { // Label.key, Label.str
							kv[num-1] = v
						}
						return nil
					})
					if kv[1] != 0 {
						s.labels = append(s.labels, kv)
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // Location.id
					id = v
				case 4: // Location.line
					return protoFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 { // Line.function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Profile.function
			var id, name uint64
			err := protoFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("string index %d out of %d", i, len(strs))
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, rs := range samples {
		s := profileSample{labels: map[string]string{}}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				name, err := str(funcName[fn])
				if err != nil {
					return nil, err
				}
				s.funcs = append(s.funcs, name)
			}
		}
		for _, kv := range rs.labels {
			k, err := str(kv[0])
			if err != nil {
				return nil, err
			}
			if s.labels[k], err = str(kv[1]); err != nil {
				return nil, err
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// protoFields calls f for each field of the protobuf message b with its
// number and either its varint value (wire type 0, b nil) or its bytes
// (wire type 2). runtime/pprof writes no other wire type.
func protoFields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var field []byte
		switch key & 7 {
		case 0:
		case 2:
			if v > uint64(len(b)) {
				return errProto
			}
			field, b = b[:v:v], b[v:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, key&7)
		}
		if err := f(int(key>>3), v, field); err != nil {
			return err
		}
	}
	return nil
}
