package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// cpuOrder is the fixed order CPU samples are charged in: each sample goes
// to the first category with a frame anywhere on its stack that matches.
// README.md states the same order.
var cpuOrder = []struct {
	name  string
	match func(fn string) bool
}{
	{"cpu.core.faultin_ms", func(fn string) bool { return fn == "cbde/internal/core.(*Engine).faultIn" }},
	{"cpu.store.maintain_ms", func(fn string) bool { return fn == "cbde/internal/store.(*Budgeted).Maintain" }},
	{"cpu.basefile.admit_ms", func(fn string) bool {
		return fn == "cbde/internal/basefile.(*Selector).admit" ||
			strings.HasPrefix(fn, "cbde/internal/basefile.(*Selector).ObserveTagged.func")
	}},
	{"cpu.anonymize_ms", func(fn string) bool { return strings.HasPrefix(fn, "cbde/internal/anonymize.") }},
	{"cpu.vdelta.encode_ms", func(fn string) bool {
		rest, ok := strings.CutPrefix(fn, "cbde/internal/vdelta.")
		return ok && (strings.Contains(rest, "Encode") || strings.Contains(rest, "Index") || strings.Contains(rest, "Estimat"))
	}},
	{"cpu.gzipx.compress_ms", func(fn string) bool {
		rest, ok := strings.CutPrefix(fn, "cbde/internal/gzipx.")
		return ok && strings.Contains(rest, "ompress") && !strings.Contains(rest, "Decompress")
	}},
	{"cpu.deltaclient.decode_ms", func(fn string) bool {
		return strings.HasPrefix(fn, "cbde/internal/deltaclient.(*Client).reconstruct")
	}},
	{"cpu.origin.render_ms", func(fn string) bool { return strings.HasPrefix(fn, "cbde/internal/origin.") }},
	{"cpu.runtime.gc_ms", func(fn string) bool {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
			"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.sweepone":
			return true
		}
		return false
	}},
	{"cpu.other_ms", func(string) bool { return true }},
}

// attributeCPU decodes a gzipped pprof CPU profile (the format
// runtime/pprof writes) and returns the CPU time charged to each cpuOrder
// category.
func attributeCPU(prof []byte) (map[string]time.Duration, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	valueIdx := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}

	out := make(map[string]time.Duration, len(cpuOrder))
	for _, c := range cpuOrder {
		out[c.name] = 0
	}
	for _, smp := range p.samples {
		if valueIdx >= len(smp.values) {
			continue
		}
		var names []string
		for _, loc := range smp.locs {
			for _, fid := range p.locFuncs[loc] {
				names = append(names, p.str(p.funcNames[fid]))
			}
		}
	category:
		for _, c := range cpuOrder {
			for _, fn := range names {
				if c.match(fn) {
					out[c.name] += time.Duration(smp.values[valueIdx])
					break category
				}
			}
		}
	}
	return out, nil
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	sampleTypes []uint64 // string-table index of each value's type
	samples     []profSample
	locFuncs    map[uint64][]uint64 // location id -> function ids, leaf first
	funcNames   map[uint64]uint64   // function id -> name string index
	strings     []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

// Field numbers from profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileString     = 6
	fValueTypeType     = 1
	fSampleLocation    = 1
	fSampleValue       = 2
	fLocationID        = 1
	fLocationLine      = 4
	fLineFunction      = 1
	fFunctionID        = 1
	fFunctionName      = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]uint64{}}
	err := pbFields(b, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case fProfileSampleType:
			var typ uint64
			err := pbFields(data, func(num, _ int, v uint64, _ []byte) error {
				if num == fValueTypeType {
					typ = v
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case fProfileSample:
			var s profSample
			err := pbFields(data, func(num, wire int, v uint64, data []byte) error {
				var err error
				switch num {
				case fSampleLocation:
					s.locs, err = pbInts(s.locs, wire, v, data)
				case fSampleValue:
					var vs []uint64
					vs, err = pbInts(nil, wire, v, data)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var funcs []uint64
			err := pbFields(data, func(num, _ int, v uint64, data []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return pbFields(data, func(num, _ int, v uint64, _ []byte) error {
						if num == fLineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case fProfileFunction:
			var id, name uint64
			err := pbFields(data, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case fProfileString:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

var errProto = errors.New("malformed protobuf")

// pbFields calls fn for each field of a protobuf message: v holds varint
// and fixed-width values, data the bytes of length-delimited ones.
func pbFields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbInts appends a repeated integer field's values, packed or not.
func pbInts(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
