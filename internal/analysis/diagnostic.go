package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Diagnostic is one finding in the tool's structured output: the same
// fact as a Finding, but with the file path already made
// module-relative and the fields split out for machine consumers (the
// JSON and SARIF formats).
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
}

// String renders the diagnostic in the classic text format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.File, d.Line, d.Pass, d.Message)
}

// passDescriptions names every pass the suite can run; it doubles as
// the SARIF rule metadata and the vocabulary of pass-scoped
// //cafe:allow directives.
var passDescriptions = map[string]string{
	"hotpath":   "functions declared //cafe:hotpath must stay allocation-free",
	"errcheck":  "the decode packages must check every error; a dropped decode error is silent corruption",
	"ctx":       "contexts must propagate: no context-free siblings from ctx-aware code, no Background/TODO in serving packages",
	"directive": "cafe: directives must be well-formed",
}

// validScope reports whether name may scope a //cafe:allow directive.
// "directive" findings cannot waive themselves.
func validScope(name string) bool {
	_, ok := passDescriptions[name]
	return ok && name != "directive"
}

// PassTiming is the wall-clock cost of one pass across every
// analyzed package, for the -format json output and the CI lint
// budget.
type PassTiming struct {
	Pass   string  `json:"pass"`
	Millis float64 `json:"ms"`
}

// Report is the structured result of one lint run, ready for any of
// the output formats.
type Report struct {
	Module   string       `json:"module"`
	Count    int          `json:"count"`
	Findings []Diagnostic `json:"findings"`
	// Timings is per-pass wall-clock, present in JSON output when the
	// driver measured it.
	Timings []PassTiming `json:"pass_timings,omitempty"`
}

// NewReport converts raw findings (as returned by Analyze, already
// sorted) into a Report with module-relative paths.
func NewReport(prog *Program, findings []Finding) Report {
	diags := make([]Diagnostic, len(findings))
	for i, f := range findings {
		diags[i] = Diagnostic{
			File:    relFile(prog.Root, f.Pos.Filename),
			Line:    f.Pos.Line,
			Column:  f.Pos.Column,
			Pass:    f.PassName,
			Message: f.Message,
		}
	}
	return Report{Module: prog.Module, Count: len(diags), Findings: diags}
}

// WriteText writes one classic "file:line: pass: message" line per
// finding — the format the fixture tests and humans read.
func (r Report) WriteText(w io.Writer) error {
	for _, d := range r.Findings {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the report as one indented JSON document.
func (r Report) WriteJSON(w io.Writer) error {
	if r.Findings == nil {
		r.Findings = []Diagnostic{}
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("analysis: %w", err)
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// SARIF 2.1.0 skeleton — just enough structure for CI code-scanning
// upload: one run, one rule per pass, one result per finding.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF writes the report as a SARIF 2.1.0 log for PR annotation.
// Every known pass appears as a rule even when clean, so a scanning
// backend sees a stable rule set across runs.
func (r Report) WriteSARIF(w io.Writer) error {
	names := make([]string, 0, len(passDescriptions))
	for name := range passDescriptions {
		names = append(names, name)
	}
	sort.Strings(names)
	index := make(map[string]int, len(names))
	rules := make([]sarifRule, len(names))
	for i, name := range names {
		index[name] = i
		rules[i] = sarifRule{ID: name, ShortDescription: sarifText{Text: passDescriptions[name]}}
	}
	results := make([]sarifResult, len(r.Findings))
	for i, d := range r.Findings {
		results[i] = sarifResult{
			RuleID:    d.Pass,
			RuleIndex: index[d.Pass],
			Level:     "warning",
			Message:   sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: d.File},
					Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Column},
				},
			}},
		}
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "cafe-lint", InformationURI: "https://pkg.go.dev/nucleodb/internal/analysis", Rules: rules}},
			Results: results,
		}},
	}
	buf, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return fmt.Errorf("analysis: %w", err)
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}
