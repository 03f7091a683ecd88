package minilang_test

import (
	"testing"

	"repro/internal/minilang"
	"repro/internal/programs"
)

// FuzzCompileSource: source text is what ftvm-run reads from a file, so
// Compile must answer any bytes with a program or an error — never a panic,
// never a hang. Seeded with the six benchmark programs and the inputs that
// once sent the lexer into an endless loop (a non-ASCII byte outside a string
// literal).
func FuzzCompileSource(f *testing.F) {
	for _, b := range programs.All() {
		f.Add(b.Source(1))
	}
	for _, src := range []string{"", "é", "func main() { var café = 1; }", `func main() { print("é"); }`} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := minilang.Compile("fuzz", src)
		if (prog == nil) == (err == nil) {
			t.Fatalf("Compile returned program %v and error %v", prog != nil, err)
		}
	})
}
