// Package sqlparse implements the lexer and recursive-descent parser for
// the engine's T-SQL dialect: CREATE TABLE with compression and FILESTREAM
// options, INSERT ... VALUES/SELECT, SELECT with JOIN / CROSS APPLY /
// GROUP BY / ORDER BY / TOP, window functions (ROW_NUMBER() OVER), and the
// transaction statements. It covers every statement in the paper.
package sqlparse

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tkEOF tokenKind = iota
	tkIdent
	tkNumber
	tkString
	tkPunct
)

type token struct {
	kind tokenKind
	text string // identifiers are unquoted; strings are unescaped
	pos  int
}

// lexer produces tokens from SQL text.
type lexer struct {
	src string
	pos int
}

// Error is a parse error with position context.
type Error struct {
	Pos     int
	Msg     string
	Context string
}

func (e *Error) Error() string {
	return fmt.Sprintf("sql: %s at position %d near %q", e.Msg, e.Pos, e.Context)
}

func (l *lexer) errorf(pos int, format string, args ...interface{}) error {
	end := pos + 20
	if end > len(l.src) {
		end = len(l.src)
	}
	start := pos
	if start > len(l.src) {
		start = len(l.src)
	}
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...), Context: l.src[start:end]}
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '@' || c == '#' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '$'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next scans one token.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
			continue
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// Line comment.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return token{}, l.errorf(l.pos, "unterminated block comment")
			}
			l.pos += 2 + end + 2
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return token{kind: tkEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tkIdent, text: l.src[start:l.pos], pos: start}, nil
	case c == '[':
		// Bracket-quoted identifier, e.g. [Read] in the paper's Query 1.
		end := strings.IndexByte(l.src[l.pos:], ']')
		if end < 0 {
			return token{}, l.errorf(start, "unterminated [identifier]")
		}
		text := l.src[l.pos+1 : l.pos+end]
		l.pos += end + 1
		if text == "" {
			return token{}, l.errorf(start, "empty [identifier]")
		}
		return token{kind: tkIdent, text: text, pos: start}, nil
	case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if isDigit(ch) {
				l.pos++
				continue
			}
			if ch == '.' && !seenDot {
				seenDot = true
				l.pos++
				continue
			}
			break
		}
		return token{kind: tkNumber, text: l.src[start:l.pos], pos: start}, nil
	case c == '\'':
		var sb strings.Builder
		l.pos++
		for l.pos < len(l.src) {
			if l.src[l.pos] == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return token{kind: tkString, text: sb.String(), pos: start}, nil
			}
			sb.WriteByte(l.src[l.pos])
			l.pos++
		}
		return token{}, l.errorf(start, "unterminated string literal")
	default:
		// Multi-char operators first.
		for _, op := range []string{"<>", "!=", "<=", ">="} {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.pos += 2
				return token{kind: tkPunct, text: op, pos: start}, nil
			}
		}
		switch c {
		case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>', '.', ';':
			l.pos++
			return token{kind: tkPunct, text: string(c), pos: start}, nil
		}
		return token{}, l.errorf(start, "unexpected character %q", c)
	}
}

// lexAll tokenizes the whole input. The token slice is sized from the
// source up front: a multi-row INSERT is about one token per 8 bytes of
// text (a 64-row one about 650 tokens), and growing the slice from empty
// costs more than the lexing does.
func lexAll(src string) ([]token, error) {
	l := &lexer{src: src}
	out := make([]token, 0, len(src)/8+8)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tkEOF {
			return out, nil
		}
	}
}
