package report

import (
	"fmt"
	"io"
)

// WriteArtifact writes one rendered experiment in the report's canonical
// framing — a "### <ID> — <Title>" heading followed by the body — so every
// consumer of the full suite (govreport -all, the golden transcript and
// its test) frames experiments identically.
func WriteArtifact(w io.Writer, id, title, body string) error {
	_, err := fmt.Fprintf(w, "### %s — %s\n\n%s\n", id, title, body)
	return err
}
