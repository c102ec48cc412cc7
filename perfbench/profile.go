package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"runtime/pprof"
	"sort"
	"strings"
)

// shareLayers are the layers whose share of CPU samples is reported as
// <layer>.self_share; "go" is the Go runtime (GC, allocator, scheduler).
var shareLayers = []string{"trace", "cpu", "sram", "hier", "dramcache", "core", "dram", "event", "exp", "go"}

// cpuProfile is a running runtime/pprof CPU profile held in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() *cpuProfile {
	p := &cpuProfile{}
	if pprof.StartCPUProfile(&p.buf) != nil {
		return nil // another profile is running (tests); report no shares
	}
	return p
}

// stop ends the profile and returns the share of samples whose leaf frame
// lies in each layer.
func (p *cpuProfile) stop() map[string]float64 {
	pprof.StopCPUProfile()
	counts, err := leafPackages(p.buf.Bytes())
	if err != nil {
		return nil
	}
	pkgs := make([]string, 0, len(counts))
	for pkg := range counts {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	var total float64
	for _, pkg := range pkgs {
		total += counts[pkg]
	}
	shares := map[string]float64{}
	for _, pkg := range pkgs {
		shares[layerOf(pkg)] += counts[pkg] / total
	}
	return shares
}

func setShares(rep *report, shares map[string]float64) {
	if shares == nil {
		return
	}
	for _, l := range shareLayers {
		rep.set(l+".self_share", shares[l], "ratio")
	}
}

// layerOf maps a Go package path to a layer name.
func layerOf(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "bear/internal/"):
		return strings.TrimPrefix(pkg, "bear/internal/")
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "go"
	case pkg == "main":
		return "bench"
	}
	return "other"
}

// packageOf extracts the package path from a symbol such as
// "bear/internal/dram.(*Memory).kick".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// leafPackages decodes a gzipped profile.proto and sums each sample's CPU
// time by the package of its leaf (innermost, inlined-into first) frame.
// Only the handful of fields needed are read: Profile.sample (2),
// Profile.location (4), Profile.function (5), Profile.string_table (6).
func leafPackages(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		loc   uint64
		value float64
	}
	var samples []sample
	locFunc := map[uint64]uint64{}  // location id -> leaf function id
	funcName := map[uint64]uint64{} // function id -> string index
	var strs []string
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample{location_id=1 packed, value=2 packed}
			var s sample
			var vals []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids := varints(b, v)
					if len(ids) > 0 && s.loc == 0 {
						s.loc = ids[0]
					}
				case 2:
					vals = append(vals, varints(b, v)...)
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = float64(vals[len(vals)-1])
			}
			samples = append(samples, s)
			return err
		case 4: // Location{id=1, line=4 Line{function_id=1}}
			var id, fn uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if fn == 0 {
						return fields(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function{id=1, name=2}
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		pkg := "unknown"
		if idx, ok := funcName[locFunc[s.loc]]; ok && int(idx) < len(strs) {
			pkg = packageOf(strs[idx])
		}
		out[pkg] += s.value
	}
	return out, nil
}

var errProto = errors.New("perfbench: malformed profile")

// fields walks the top-level fields of one protobuf message, passing each
// field's number and either its varint value or its length-delimited bytes.
func fields(b []byte, visit func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := visit(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := visit(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// varints returns a repeated varint field's values: the packed payload b,
// or the single unpacked value v when b is nil.
func varints(b []byte, v uint64) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}
