package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// The CPU profile that runtime/pprof writes is a gzip'd profile.proto.
// This file decodes the handful of fields layer attribution needs with a
// hand-rolled protobuf reader, so the benchmark keeps the module's
// zero-dependency rule and never shells out to `go tool pprof`.

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID       = 1
	functionName     = 2
	functionFilename = 4
)

// layers are the buckets a CPU sample can land in, in report order.
var layers = []string{
	"botcrypto", "botcrypto.legacy", "churn", "core", "ddsr", "experiment",
	"faults", "gc", "graph", "other", "pow", "sim", "soap", "superonion",
	"tor.cells", "tor.circuit", "tor.dir",
}

// packageLayers maps an onionbots/internal package to its layer. The
// tor package is split by source file (torFileLayers); packages absent
// here (jsonx, stats, …) count as "other".
var packageLayers = map[string]string{
	"botcrypto":        "botcrypto",
	"botcrypto/legacy": "botcrypto.legacy",
	"churn":            "churn",
	"core":             "core",
	"ddsr":             "ddsr",
	"experiment":       "experiment",
	"faults":           "faults",
	"graph":            "graph",
	"pow":              "pow",
	"sim":              "sim",
	"soap":             "soap",
	"superonion":       "superonion",
}

// torFileLayers splits internal/tor: the cell data plane, the directory
// store, and everything else (circuits, proxies, relays, consensus).
var torFileLayers = map[string]string{
	"cell.go":       "tor.cells",
	"stream.go":     "tor.cells",
	"store.go":      "tor.dir",
	"mmapstore.go":  "tor.dir",
	"mmap_unix.go":  "tor.dir",
	"mmap_other.go": "tor.dir",
	"descriptor.go": "tor.dir",
}

// gcFrames are runtime functions whose presence anywhere on a stack
// makes the sample garbage-collection work: the background mark and
// sweep workers, and the mark assist and proportional sweep a goroutine
// pays while allocating.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.sweepone":          true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
	"runtime._GC":               true,
}

const internalPrefix = "onionbots/internal/"

// frame is one (possibly inlined) function on a sampled stack.
type frame struct {
	function string
	file     string
}

// layerOf attributes a stack, leaf first, to a layer: gc if any frame is
// collector work, else the package of the innermost onionbots/internal
// frame, else other.
func layerOf(stack []frame) string {
	for _, f := range stack {
		if gcFrames[f.function] {
			return "gc"
		}
	}
	for _, f := range stack {
		rest, ok := strings.CutPrefix(f.function, internalPrefix)
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		if pkg == "tor" {
			if l, ok := torFileLayers[path.Base(f.file)]; ok {
				return l
			}
			return "tor.circuit"
		}
		if l, ok := packageLayers[pkg]; ok {
			return l
		}
		return "other"
	}
	return "other"
}

// layerCPU decodes a gzip'd CPU profile and returns the CPU seconds each
// layer owns plus the profile's total. Every sample lands in exactly one
// layer, so the values sum to the total.
func layerCPU(gz []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	return p.bucket()
}

type location struct {
	functionIDs []uint64 // innermost (inlined) first
}

type sample struct {
	locationIDs []uint64 // leaf first
	values      []int64
}

type function struct {
	name, file int64 // string table indices
}

type profile struct {
	sampleTypes []int64 // string table index of each value's type
	samples     []sample
	locations   map[uint64]location
	functions   map[uint64]function
	strings     []string
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64]location{}, functions: map[uint64]function{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case profSampleType:
			var typ int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				if num == valueTypeType {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case profSample:
			var s sample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case sampleLocationID:
					return appendPacked(&s.locationIDs, v, data)
				case sampleValue:
					var vals []uint64
					if err := appendPacked(&vals, v, data); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var loc location
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == lineFunctionID {
							loc.functionIDs = append(loc.functionIDs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = loc
			return err
		case profFunction:
			var id uint64
			var fn function
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					fn.name = int64(v)
				case functionFilename:
					fn.file = int64(v)
				}
				return nil
			})
			p.functions[id] = fn
			return err
		case profStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// bucket sums the cpu-nanoseconds value of every sample by layer.
func (p *profile) bucket() (map[string]float64, float64, error) {
	cpu := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, 0, errors.New("profile: no cpu sample type")
	}
	out := make(map[string]float64, len(layers))
	var total float64
	var stack []frame
	for _, s := range p.samples {
		if cpu >= len(s.values) {
			return nil, 0, errors.New("profile: sample without cpu value")
		}
		stack = stack[:0]
		for _, id := range s.locationIDs {
			for _, fid := range p.locations[id].functionIDs {
				fn := p.functions[fid]
				stack = append(stack, frame{function: p.str(fn.name), file: p.str(fn.file)})
			}
		}
		sec := float64(s.values[cpu]) / 1e9
		out[layerOf(stack)] += sec
		total += sec
	}
	return out, total, nil
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// eachField walks the fields of one protobuf message. fn receives the
// field number and either the varint value (wire type 0) or the payload
// (wire type 2); fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which an encoder may
// write either packed (one payload) or one element per field.
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// uvarint decodes a base-128 varint, returning the value and the bytes
// read (0 when b is truncated, negative on overflow).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
