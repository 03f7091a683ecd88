// Package minilang implements a small imperative language — lexer,
// recursive-descent parser, type checker and code generator — targeting FTVM
// bytecode. It is the substrate used to author the SPEC JVM98-analog
// benchmark programs and the examples: C-like syntax with int/float/str
// scalars, arrays, record classes, functions, monitors (lock blocks,
// wait/notify), threads (spawn/join) and the FTVM native builtins.
package minilang

import (
	"fmt"
	"strings"
)

// tokKind classifies tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokFloat
	tokStr
	tokPunct // operators and punctuation
	tokKeyword
)

var keywords = map[string]bool{
	"func": true, "var": true, "class": true, "if": true, "else": true,
	"while": true, "for": true, "return": true, "break": true, "continue": true,
	"lock": true, "spawn": true, "new": true, "null": true, "true": true,
	"false": true, "int": true, "float": true, "str": true, "thread": true,
	"halt": true, "yield": true,
}

type token struct {
	kind tokKind
	text string
	i    int64
	f    float64
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokStr:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// SyntaxError reports a lexing or parsing failure with its source line.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("minilang: line %d: %s", e.Line, e.Msg)
}

func errAt(line int, format string, args ...any) error {
	return &SyntaxError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// lex tokenises src.
func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			i += 2
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
				}
				i++
			}
			if i+1 >= n {
				return nil, errAt(line, "unterminated block comment")
			}
			i += 2
		case c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
			// ASCII only, like isIdentChar: other bytes are unexpected, below.
			j := i
			for j < n && (isIdentChar(src[j])) {
				j++
			}
			word := src[i:j]
			k := tokIdent
			if keywords[word] {
				k = tokKeyword
			}
			toks = append(toks, token{kind: k, text: word, line: line})
			i = j
		case c >= '0' && c <= '9':
			j := i
			isFloat := false
			for j < n && (src[j] >= '0' && src[j] <= '9') {
				j++
			}
			if j < n && src[j] == '.' && j+1 < n && src[j+1] >= '0' && src[j+1] <= '9' {
				isFloat = true
				j++
				for j < n && (src[j] >= '0' && src[j] <= '9') {
					j++
				}
			}
			if j < n && (src[j] == 'e' || src[j] == 'E') {
				k := j + 1
				if k < n && (src[k] == '+' || src[k] == '-') {
					k++
				}
				if k < n && src[k] >= '0' && src[k] <= '9' {
					isFloat = true
					for k < n && src[k] >= '0' && src[k] <= '9' {
						k++
					}
					j = k
				}
			}
			text := src[i:j]
			if isFloat {
				var f float64
				if _, err := fmt.Sscanf(text, "%g", &f); err != nil {
					return nil, errAt(line, "bad float literal %q", text)
				}
				toks = append(toks, token{kind: tokFloat, text: text, f: f, line: line})
			} else {
				var v int64
				if _, err := fmt.Sscanf(text, "%d", &v); err != nil {
					return nil, errAt(line, "bad int literal %q", text)
				}
				toks = append(toks, token{kind: tokInt, text: text, i: v, line: line})
			}
			i = j
		case c == '"':
			var sb strings.Builder
			j := i + 1
			for j < n && src[j] != '"' {
				if src[j] == '\\' && j+1 < n {
					j++
					switch src[j] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					case '"':
						sb.WriteByte('"')
					case '\\':
						sb.WriteByte('\\')
					default:
						return nil, errAt(line, "bad escape \\%c", src[j])
					}
				} else {
					if src[j] == '\n' {
						return nil, errAt(line, "newline in string literal")
					}
					sb.WriteByte(src[j])
				}
				j++
			}
			if j >= n {
				return nil, errAt(line, "unterminated string literal")
			}
			toks = append(toks, token{kind: tokStr, text: sb.String(), line: line})
			i = j + 1
		default:
			// Multi-char operators first.
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			switch two {
			case "==", "!=", "<=", ">=", "&&", "||", "<<", ">>":
				toks = append(toks, token{kind: tokPunct, text: two, line: line})
				i += 2
				continue
			}
			switch c {
			case '+', '-', '*', '/', '%', '<', '>', '=', '!', '&', '|', '^',
				'(', ')', '{', '}', '[', ']', ',', ';', '.', ':':
				toks = append(toks, token{kind: tokPunct, text: string(c), line: line})
				i++
			default:
				return nil, errAt(line, "unexpected character %q", string(c))
			}
		}
	}
	toks = append(toks, token{kind: tokEOF, line: line})
	return toks, nil
}

func isIdentChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}
