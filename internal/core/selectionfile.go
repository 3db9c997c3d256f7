package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"looppoint/internal/artifact"
	"looppoint/internal/bbv"
)

// SelectionFile is the JSON-serializable form of a region selection — the
// analogue of the paper artifact's <basename>.Data directory: everything
// a downstream simulation campaign needs to locate and weight the chosen
// regions, without the profile itself.
type SelectionFile struct {
	// Program identifies the analyzed application.
	Program string `json:"program"`
	Threads int    `json:"threads"`
	// SliceUnit and Seed record the analysis parameters for provenance.
	SliceUnit uint64 `json:"slice_unit"`
	Seed      uint64 `json:"seed"`
	// TotalFiltered is the whole-program unit-of-work count.
	TotalFiltered uint64 `json:"total_filtered_instructions"`
	TotalRegions  int    `json:"total_regions"`
	// Engine names the selection engine when it differs from the classic
	// "simpoint" rule. Omitted (empty) for simpoint selections so files
	// written before engines existed and files written after are
	// byte-identical for the default path.
	Engine string `json:"engine,omitempty"`
	// Points are the selected looppoints.
	Points []SelectionPoint `json:"looppoints"`
}

// SelectionPoint is one looppoint's portable description.
type SelectionPoint struct {
	Region      int        `json:"region"`
	Start       MarkerJSON `json:"start"`
	End         MarkerJSON `json:"end"`
	Filtered    uint64     `json:"filtered_instructions"`
	Multiplier  float64    `json:"multiplier"`
	ClusterSize int        `json:"cluster_size"`
	// Spread is the cluster's mean member-to-representative distance in
	// the projected BBV space (confidence proxy; 0 = perfectly tight).
	Spread float64 `json:"spread"`
	// Draws is the number of representatives drawn from this point's
	// stratum when the engine drew more than one (stratified sampling);
	// omitted for the classic one-draw-per-cluster engines, preserving
	// byte-identity of simpoint selection files.
	Draws int `json:"draws,omitempty"`
}

// MarkerJSON is the JSON form of a (PC, count) marker.
type MarkerJSON struct {
	PC    uint64 `json:"pc,omitempty"`
	Count uint64 `json:"count,omitempty"`
	Kind  string `json:"kind,omitempty"` // "start", "end", "icount", or "" (pc marker)
}

func toMarkerJSON(m bbv.Marker) MarkerJSON {
	switch {
	case m.IsEnd:
		return MarkerJSON{Kind: "end"}
	case m.IsStart():
		return MarkerJSON{Kind: "start"}
	case m.IsICount():
		return MarkerJSON{Kind: "icount", Count: m.Count}
	default:
		return MarkerJSON{PC: m.PC, Count: m.Count}
	}
}

// Marker converts back to a bbv.Marker.
func (m MarkerJSON) Marker() (bbv.Marker, error) {
	switch m.Kind {
	case "end":
		return bbv.Marker{IsEnd: true}, nil
	case "start":
		return bbv.Marker{}, nil
	case "icount":
		return bbv.Marker{Count: m.Count}, nil
	case "":
		if m.PC == 0 {
			return bbv.Marker{}, fmt.Errorf("core: pc marker without pc")
		}
		return bbv.Marker{PC: m.PC, Count: m.Count}, nil
	}
	return bbv.Marker{}, fmt.Errorf("core: unknown marker kind %q", m.Kind)
}

// File converts a selection to its portable form.
func (s *Selection) File() *SelectionFile {
	a := s.Analysis
	f := &SelectionFile{
		Program:       a.Prog.Name,
		Threads:       a.Prog.NumThreads(),
		SliceUnit:     a.Config.SliceUnit,
		Seed:          a.Config.Seed,
		TotalFiltered: a.Profile.TotalFiltered,
		TotalRegions:  len(a.Profile.Regions),
	}
	if engine := s.Engine(); engine != "simpoint" {
		f.Engine = engine
	}
	for _, lp := range s.Points {
		p := SelectionPoint{
			Region:      lp.Region.Index,
			Start:       toMarkerJSON(lp.Region.Start),
			End:         toMarkerJSON(lp.Region.End),
			Filtered:    lp.Region.Filtered,
			Multiplier:  lp.Multiplier,
			ClusterSize: lp.ClusterSize,
			Spread:      lp.Spread,
		}
		if lp.Draws > 1 {
			p.Draws = lp.Draws
		}
		f.Points = append(f.Points, p)
	}
	return f
}

// Selection files are written inside a versioned integrity envelope:
//
//	{"format":"looppoint-selection","version":2,"fnv1a":"0x…","selection":{…}}
//
// The checksum covers the json.Compact-normalized payload bytes, so it
// is insensitive to the indentation the envelope encoder applies (and to
// any pretty-printing a human round-trips the file through) while still
// catching every semantic byte flip. Loaders accept legacy bare
// selection JSON (no "format" key) unchanged for pre-envelope files.
const (
	selectionFormat  = "looppoint-selection"
	selectionVersion = 2
)

type selectionEnvelope struct {
	Format  string          `json:"format"`
	Version int             `json:"version"`
	FNV1a   string          `json:"fnv1a"`
	Payload json.RawMessage `json:"selection"`
}

// WriteJSON writes the selection file inside its integrity envelope.
func (f *SelectionFile) WriteJSON(w io.Writer) error {
	payload, err := json.Marshal(f)
	if err != nil {
		return err
	}
	env := selectionEnvelope{
		Format:  selectionFormat,
		Version: selectionVersion,
		FNV1a:   fmt.Sprintf("%#x", artifact.Checksum(payload)),
		Payload: payload,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&env)
}

// SaveJSON writes the selection file to path.
func (f *SelectionFile) SaveJSON(path string) error {
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// LoadSelectionFile reads and validates a selection file — the v2
// integrity envelope, or legacy bare selection JSON. Failures wrap the
// artifact sentinels: ErrTruncated for input that ends mid-JSON,
// ErrVersion for envelope version skew, ErrCorrupt for checksum
// mismatches and payload validation failures.
func LoadSelectionFile(r io.Reader) (*SelectionFile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: selection file: %w", err)
	}

	var probe struct {
		Format string `json:"format"`
	}
	// A decode error here is deliberately ignored: garbage input falls
	// through to the strict legacy decoder, which classifies it.
	_ = json.Unmarshal(data, &probe)
	if probe.Format == "" {
		return decodeSelection(data)
	}
	if probe.Format != selectionFormat {
		return nil, fmt.Errorf("core: selection file format %q: %w", probe.Format, artifact.ErrCorrupt)
	}
	var env selectionEnvelope
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("core: selection envelope: %v: %w", err, classifyJSONErr(err))
	}
	if err := expectEOF(dec); err != nil {
		return nil, fmt.Errorf("core: selection envelope: %w", err)
	}
	if env.Version != selectionVersion {
		return nil, fmt.Errorf("core: selection file version %d (want %d): %w",
			env.Version, selectionVersion, artifact.ErrVersion)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Payload); err != nil {
		return nil, fmt.Errorf("core: selection payload: %v: %w", err, artifact.ErrCorrupt)
	}
	if got := fmt.Sprintf("%#x", artifact.Checksum(compact.Bytes())); got != env.FNV1a {
		return nil, fmt.Errorf("core: selection checksum mismatch (file %s, computed %s): %w",
			env.FNV1a, got, artifact.ErrCorrupt)
	}
	return decodeSelection(compact.Bytes())
}

// classifyJSONErr maps a JSON decode failure onto the artifact
// sentinels: input that simply stops is truncation, everything else is
// corruption.
func classifyJSONErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return artifact.ErrTruncated
	}
	return artifact.ErrCorrupt
}

// expectEOF rejects non-whitespace bytes after the decoded value, so
// damage past the closing brace cannot slip through unnoticed.
func expectEOF(dec *json.Decoder) error {
	if t, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON value (%v): %w", t, artifact.ErrCorrupt)
	}
	return nil
}

// decodeSelection strictly decodes and validates the selection payload
// (shared by the envelope and legacy paths). Validation failures wrap
// artifact.ErrCorrupt: the file parsed but its content is inconsistent.
func decodeSelection(data []byte) (*SelectionFile, error) {
	var f SelectionFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("core: selection file: %v: %w", err, classifyJSONErr(err))
	}
	if err := expectEOF(dec); err != nil {
		return nil, fmt.Errorf("core: selection file: %w", err)
	}
	if f.Program == "" || f.Threads < 1 || len(f.Points) == 0 {
		return nil, fmt.Errorf("core: selection file incomplete (program %q, %d threads, %d points): %w",
			f.Program, f.Threads, len(f.Points), artifact.ErrCorrupt)
	}
	var mass float64
	for i, p := range f.Points {
		if _, err := p.Start.Marker(); err != nil {
			return nil, fmt.Errorf("core: point %d start: %v: %w", i, err, artifact.ErrCorrupt)
		}
		if _, err := p.End.Marker(); err != nil {
			return nil, fmt.Errorf("core: point %d end: %v: %w", i, err, artifact.ErrCorrupt)
		}
		if p.Multiplier < 1 {
			return nil, fmt.Errorf("core: point %d multiplier %f < 1: %w", i, p.Multiplier, artifact.ErrCorrupt)
		}
		mass += float64(p.Multiplier * float64(p.Filtered)) // rounded before the add: never fused
	}
	if f.TotalFiltered > 0 {
		if ratio := mass / float64(f.TotalFiltered); ratio < 0.99 || ratio > 1.01 {
			return nil, fmt.Errorf("core: selection file multiplier mass %.3f of total work (corrupted?): %w",
				ratio, artifact.ErrCorrupt)
		}
	}
	return &f, nil
}
