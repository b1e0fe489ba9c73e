package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	gort "runtime"
	"strings"
)

// cpuLayers maps a source file of the module (relative to its root) to the
// layer its CPU time is charged to: the first matching prefix wins. Files of
// the module that match nothing (the fault and churn helpers, this
// benchmark) are "other"; files outside the module (the Go runtime, GC and
// standard library) are "go-runtime". README.md carries the same table.
var cpuLayers = []struct{ prefix, layer string }{
	{"internal/runtime/lanes.go", "lanes"},
	{"internal/verify/lanes.go", "lanes"},
	{"internal/runtime/", "engine"},
	{"internal/bits/", "engine"},
	{"internal/verify/sampler.go", "sampler"},
	{"internal/verify/coast.go", "coast"},
	{"internal/verify/machine.go", "static"},
	{"internal/labeling/", "static"},
	{"internal/hierarchy/checks.go", "static"},
	{"internal/train/labels.go", "static"},
	{"internal/train/", "trains"},
	{"internal/selfstab/", "transformer"},
	{"internal/syncmst/machine.go", "transformer"},
	{"internal/verify/marker.go", "marker"},
	{"internal/syncmst/", "marker"},
	{"internal/partition/", "marker"},
	{"internal/hierarchy/", "marker"},
	{"internal/graph/", "graph"},
	{"internal/oracle/", "oracle"},
}

// cpuShareLayers lists every layer cpuShares can report, in metric order.
var cpuShareLayers = []string{"engine", "lanes", "static", "trains", "sampler", "coast", "transformer", "marker", "graph", "oracle", "go-runtime", "other"}

// checkoutRoot is the repository's directory as this binary records source
// paths without -trimpath.
func checkoutRoot() string {
	_, file, _, _ := gort.Caller(0)
	return path.Dir(path.Dir(file))
}

// layerOfFile maps a profile's source file to its layer. A file of the
// repository is recorded under the checkout's path, or — in a -trimpath
// build — as "ssmst@v0.0.0/internal/..." (the replaced module) and
// "ssmst/bench/..." (this benchmark); every other file is the Go runtime's
// or the standard library's.
func layerOfFile(file, checkout string) string {
	rel, ok := strings.CutPrefix(file, checkout+"/")
	if !ok {
		mod, rest, found := strings.Cut(file, "/")
		if !found || (mod != "ssmst" && !strings.HasPrefix(mod, "ssmst@")) {
			return "go-runtime"
		}
		rel = rest
	}
	for _, c := range cpuLayers {
		if strings.HasPrefix(rel, c.prefix) {
			return c.layer
		}
	}
	return "other"
}

// cpuShares decodes a gzipped pprof CPU profile and returns each layer's
// share of the sampled CPU time, charging every sample to the source file of
// its leaf frame (the innermost inlined function of the first location).
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	root := checkoutRoot()
	shares := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || p.cpuIndex >= len(s.values) {
			continue
		}
		layer := "go-runtime"
		if loc, ok := p.locations[s.locs[0]]; ok && len(loc) > 0 {
			if fn, ok := p.functions[loc[0]]; ok && fn < uint64(len(p.strings)) {
				layer = layerOfFile(p.strings[fn], root)
			}
		}
		v := float64(s.values[p.cpuIndex])
		shares[layer] += v
		total += v
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
	}
	return shares, nil
}

// profile holds the parts of a pprof profile.proto cpuShares needs.
type profile struct {
	strings     []string
	sampleTypes []uint64            // string index of each sample type
	cpuIndex    int                 // value index of the "cpu" sample type
	samples     []sample            // location ids (leaf first) and values
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]uint64   // function id → filename string index
}

type sample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the profile.proto message: field 1 sample_type,
// 2 sample, 4 location, 5 function, 6 string_table. Everything else is
// skipped.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	err := fields(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 1:
			return fields(sub, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					p.sampleTypes = append(p.sampleTypes, v)
				}
				return nil
			})
		case 2:
			var s sample
			err := fields(sub, func(n, w int, v uint64, packed []byte) error {
				switch n {
				case 1:
					return varints(w, v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(w, v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(sub, func(n, _ int, v uint64, line []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(line, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id, file uint64
			err := fields(sub, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					file = v
				}
				return nil
			})
			p.functions[id] = file
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p.cpuIndex = len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if t < uint64(len(p.strings)) && p.strings[t] == "cpu" {
			p.cpuIndex = i
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks the top-level fields of one protobuf message, passing each
// field's number and wire type with its varint value (wire type 0) or its
// bytes (wire type 2). Fixed-width fields are skipped.
func fields(b []byte, f func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated varint field, packed (wire type 2) or not.
func varints(wire int, v uint64, packed []byte, f func(uint64)) error {
	if wire == 0 {
		f(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		f(x)
		packed = packed[n:]
	}
	return nil
}
