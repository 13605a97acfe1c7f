package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("Table I", "Matched EIDs", "SS", "EDP")
	tb.AddRow("200", "92.42%", "93%")
	md := tb.Markdown()
	if !strings.Contains(md, "**Table I**") {
		t.Errorf("missing bold title:\n%s", md)
	}
	if !strings.Contains(md, "| Matched EIDs | SS | EDP |") {
		t.Errorf("missing header row:\n%s", md)
	}
	if !strings.Contains(md, "| --- | --- | --- |") {
		t.Errorf("missing rule row:\n%s", md)
	}
	if !strings.Contains(md, "| 200 | 92.42% | 93% |") {
		t.Errorf("missing data row:\n%s", md)
	}
}

func TestTableMarkdownEscapesPipes(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x|y")
	if !strings.Contains(tb.Markdown(), `x\|y`) {
		t.Errorf("pipe not escaped:\n%s", tb.Markdown())
	}
}

func TestSeriesMarkdown(t *testing.T) {
	s := NewSeries("Fig 5", "EIDs", "SS", "EDP")
	s.Add(100, 60, 150)
	md := s.Markdown()
	if !strings.Contains(md, "| 100 | 60.00 | 150.00 |") {
		t.Errorf("series markdown:\n%s", md)
	}
}

func TestFprintMarkdown(t *testing.T) {
	var buf bytes.Buffer
	s := NewSeries("T", "x", "y")
	s.Add(1, 2)
	if err := FprintMarkdown(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(buf.String(), "\n\n") {
		t.Error("missing trailing blank line")
	}
}
