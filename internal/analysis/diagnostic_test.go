package analysis_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nucleodb/internal/analysis"
)

// fixtureReport runs the full default-equivalent suite over the
// fixture module and returns the structured report.
func fixtureReport(t *testing.T) analysis.Report {
	t.Helper()
	prog := loadFixture(t)
	passes := []analysis.Pass{
		&analysis.HotpathPass{},
		&analysis.ErrcheckPass{Packages: []string{"fixture/errs"}},
		&analysis.CtxPass{ForbidBackgroundIn: []string{"fixture/ctxpkg"}},
	}
	findings := analysis.Analyze(prog, passes, nil)
	if len(findings) == 0 {
		t.Fatal("fixture module reported no findings; the format tests need some")
	}
	return analysis.NewReport(prog, findings)
}

func TestReportJSONRoundtrip(t *testing.T) {
	report := fixtureReport(t)
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded analysis.Report
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON output does not parse: %v\n%s", err, buf.String())
	}
	if decoded.Module != "fixture" {
		t.Errorf("module = %q, want fixture", decoded.Module)
	}
	if decoded.Count != len(report.Findings) || len(decoded.Findings) != len(report.Findings) {
		t.Errorf("count %d / %d findings, want %d", decoded.Count, len(decoded.Findings), len(report.Findings))
	}
	for _, d := range decoded.Findings {
		if d.File == "" || d.Line == 0 || d.Pass == "" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
		if strings.HasPrefix(d.File, "/") {
			t.Errorf("file %q is absolute; diagnostics must be module-relative", d.File)
		}
	}
}

func TestReportSARIF(t *testing.T) {
	report := fixtureReport(t)
	var buf bytes.Buffer
	if err := report.WriteSARIF(&buf); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output does not parse: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q runs %d, want 2.1.0 and 1 run", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "cafe-lint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	rules := map[string]int{}
	for i, rule := range run.Tool.Driver.Rules {
		rules[rule.ID] = i
	}
	for _, pass := range []string{"hotpath", "errcheck", "ctx"} {
		if _, ok := rules[pass]; !ok {
			t.Errorf("rule %q missing from driver rules", pass)
		}
	}
	if len(run.Results) != len(report.Findings) {
		t.Fatalf("%d results, want %d", len(run.Results), len(report.Findings))
	}
	for _, res := range run.Results {
		if rules[res.RuleID] != res.RuleIndex {
			t.Errorf("result ruleIndex %d does not match rules[%q]=%d", res.RuleIndex, res.RuleID, rules[res.RuleID])
		}
		if len(res.Locations) != 1 || res.Locations[0].PhysicalLocation.Region.StartLine == 0 {
			t.Errorf("result %q lacks a physical location", res.Message.Text)
		}
	}
}
