package main

// Per-layer CPU shares from a runtime/pprof CPU profile. The profile is
// gzip-compressed protobuf (github.com/google/pprof's profile.proto);
// only the fields read below are decoded, with the standard library.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the layers CPU samples are charged to, in report order.
var cpuLayers = []string{
	"cpu.client", "cpu.scenarios", "cpu.netsim", "cpu.llm", "cpu.tools",
	"cpu.telemetry", "cpu.risk", "cpu.embed", "cpu.kb", "cpu.core",
	"cpu.fleet", "cpu.gateway", "cpu.storage", "cpu.obs", "cpu.http",
	"cpu.json", "cpu.runtime", "cpu.bench", "cpu.other",
}

// layerOf maps a Go package to its CPU layer. ok is false for utility
// packages (sort, strings, fmt, sync, os, syscall, runtime, ...), whose
// time is charged to the nearest caller that has a layer: a map lookup,
// an allocation or a write(2) costs the layer that made it.
func layerOf(pkg string) (layer string, ok bool) {
	if rest, found := strings.CutPrefix(pkg, "repro/internal/"); found {
		name, _, _ := strings.Cut(rest, "/")
		switch name {
		case "scenarios", "netsim", "llm", "tools", "telemetry", "risk", "embed", "kb", "fleet", "gateway", "obs":
			return "cpu." + name, true
		case "query":
			return "cpu.kb", true
		case "ops":
			return "cpu.fleet", true
		case "journal", "lake":
			return "cpu.storage", true
		case "parallel":
			return "", false
		}
		return "cpu.core", true
	}
	switch {
	case pkg == "main" || pkg == "repro/bench": // the binary, and its test binary
		return "cpu.bench", true
	case pkg == "encoding/json":
		return "cpu.json", true
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "bufio" ||
		strings.HasPrefix(pkg, "mime") || strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
		return "cpu.http", true
	}
	return "", false
}

// isRuntime reports whether pkg is part of the Go runtime.
func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// packageOf extracts the package path from a symbol name such as
// "repro/internal/netsim.(*World).Recompute" or
// "slices.SortFunc[go.shape.int]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

var errBadProfile = errors.New("malformed CPU profile")

// protoFields calls fn for each field of one protobuf message: v holds
// a varint's value, data a length-delimited field's bytes.
func protoFields(b []byte, fn func(num, wire int, v uint64, data []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errBadProfile
			}
			b = b[n:]
			fn(num, wire, v, nil)
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errBadProfile
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProfile
			}
			fn(num, wire, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		default:
			return errBadProfile
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, packed or
// not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// profSample is one decoded sample: its stack (leaf first), weight, and
// string-label pairs as string-table indices.
type profSample struct {
	locs   []uint64
	weight int64
	labels [][2]uint64
}

// cpuShares reduces a CPU profile to each layer's share of sampled CPU
// time. Samples labeled side=client (the load generator) go to
// cpu.client; every other sample goes to the layer of the innermost
// frame that has one. Stacks with no such frame go to cpu.runtime when
// they run runtime code (garbage collection, scheduling), else to
// cpu.other.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs    []string
		samples []profSample
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		perr    error
	)
	keep := func(err error) {
		if err != nil && perr == nil {
			perr = err
		}
	}
	keep(protoFields(raw, func(num, wire int, v uint64, data []byte) {
		switch num {
		case 2: // sample
			var s profSample
			var values []uint64
			keep(protoFields(data, func(num, wire int, v uint64, data []byte) {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, data)
				case 2:
					values = appendVarints(values, wire, v, data)
				case 3: // label
					var key, str uint64
					keep(protoFields(data, func(num, _ int, v uint64, _ []byte) {
						switch num {
						case 1:
							key = v
						case 2:
							str = v
						}
					}))
					s.labels = append(s.labels, [2]uint64{key, str})
				}
			}))
			if len(values) > 0 {
				s.weight = int64(values[len(values)-1])
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			keep(protoFields(data, func(num, _ int, v uint64, data []byte) {
				switch num {
				case 1:
					id = v
				case 4: // line
					keep(protoFields(data, func(num, _ int, v uint64, _ []byte) {
						if num == 1 {
							fns = append(fns, v)
						}
					}))
				}
			}))
			locs[id] = fns
		case 5: // function
			var id, name uint64
			keep(protoFields(data, func(num, _ int, v uint64, _ []byte) {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
			}))
			funcs[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	}))
	if perr != nil {
		return nil, fmt.Errorf("cpu profile: %w", perr)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}

	isClient := func(s profSample) bool {
		for _, l := range s.labels {
			if str(l[0]) == "side" && str(l[1]) == "client" {
				return true
			}
		}
		return false
	}
	weights := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.weight
		layer := "cpu.other"
		if isClient(s) {
			layer = "cpu.client"
		} else {
			inRuntime := false
		frames:
			for _, l := range s.locs {
				for _, f := range locs[l] {
					pkg := packageOf(str(funcs[f]))
					if name, ok := layerOf(pkg); ok {
						layer = name
						break frames
					}
					inRuntime = inRuntime || isRuntime(pkg)
				}
			}
			if layer == "cpu.other" && inRuntime {
				layer = "cpu.runtime"
			}
		}
		weights[layer] += s.weight
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
		if total > 0 {
			shares[l] = float64(weights[l]) / float64(total)
		}
	}
	return shares, nil
}
