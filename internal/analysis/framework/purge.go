package framework

// purgeFuncBodies blanks, in place, the inside of the body of every
// top-level function declaration in the Go source src.  Every byte between
// a body's braces becomes a space except newlines and //line or /*line
// directives, so each byte offset, and each line:col position outside the
// bodies, is unchanged.  Only a func keyword that begins a top-level
// declaration counts: function literals and composite literals, in a
// package-level var initializer say, keep their contents, since a
// composite literal's length can be part of a type ([...]T{…}).
//
// The lexer works on bytes and allocates nothing.  It skips comments,
// strings, runes and raw strings, and applies Go's semicolon rule only
// where a declaration can end: at bracket depth 0.  It assumes valid
// source; on invalid source the purge may differ, but the parser still
// reports a syntax error.
func purgeFuncBodies(src []byte) {
	depth := 0           // open parentheses, brackets and braces
	declStart := true    // the next token begins a top-level declaration
	semi := false        // a newline here would insert a semicolon
	inSig := false       // between a top-level func and its body
	afterTypeKw := false // the previous token was struct or interface
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == '\n':
			if semi && depth == 0 {
				declStart, inSig = true, false
			}
			semi = false
			i++
			continue
		case c == ' ' || c == '\t' || c == '\r':
			i++
			continue
		case c == '/' && i+1 < len(src) && (src[i+1] == '/' || src[i+1] == '*'):
			end, newline := skipComment(src, i)
			if newline && semi && depth == 0 {
				declStart, inSig = true, false
				semi = false
			}
			i = end
			continue
		}
		startsDecl, typeKw := declStart, afterTypeKw
		declStart, afterTypeKw = false, false
		switch {
		case isWordByte(c):
			j := i + 1
			for j < len(src) && isWordByte(src[j]) {
				j++
			}
			word := src[i:j]
			semi = true
			switch string(word) {
			case "func":
				if startsDecl && depth == 0 {
					inSig = true
				}
				semi = false
			case "struct", "interface":
				afterTypeKw = true
				semi = false
			case "case", "chan", "const", "default", "defer", "else", "for",
				"go", "goto", "if", "import", "map", "package", "range",
				"select", "switch", "type", "var":
				semi = false
			}
			i = j
		case c == '"' || c == '\'' || c == '`':
			i = skipQuoted(src, i)
			semi = true
		case c == '(' || c == '[':
			depth++
			semi = false
			i++
		case c == ')' || c == ']' || c == '}':
			depth--
			semi = true
			i++
		case c == '{':
			if inSig && depth == 0 && !typeKw {
				i = blankBody(src, i)
				inSig = false
				semi = true
				continue
			}
			depth++
			semi = false
			i++
		case c == ';':
			if depth == 0 {
				declStart, inSig = true, false
			}
			semi = false
			i++
		default:
			semi = false
			i++
		}
	}
}

// blankBody blanks the inside of the block whose opening brace is at
// src[open] and returns the offset just past its closing brace.
func blankBody(src []byte, open int) int {
	depth := 0
	i := open
	for i < len(src) {
		c := src[i]
		switch {
		case c == '{':
			depth++
		case c == '}':
			depth--
			if depth == 0 {
				return i + 1
			}
		case c == '/' && i+1 < len(src) && (src[i+1] == '/' || src[i+1] == '*'):
			end, _ := skipComment(src, i)
			if !isLineDirective(src[i:end]) {
				blank(src[i:end])
			}
			i = end
			continue
		case c == '"' || c == '\'' || c == '`':
			end := skipQuoted(src, i)
			blank(src[i:end])
			i = end
			continue
		}
		if i > open {
			blank(src[i : i+1])
		}
		i++
	}
	return i
}

// blank turns every byte of b but newlines into a space.
func blank(b []byte) {
	for k, c := range b {
		if c != '\n' {
			b[k] = ' '
		}
	}
}

// skipComment returns the offset just past the comment at src[i] (for a
// line comment, the offset of its newline) and whether the comment spans
// a newline.
func skipComment(src []byte, i int) (end int, newline bool) {
	if src[i+1] == '/' {
		for j := i + 2; j < len(src); j++ {
			if src[j] == '\n' {
				return j, false
			}
		}
		return len(src), false
	}
	for j := i + 2; j+1 < len(src); j++ {
		switch {
		case src[j] == '\n':
			newline = true
		case src[j] == '*' && src[j+1] == '/':
			return j + 2, newline
		}
	}
	return len(src), newline
}

// skipQuoted returns the offset just past the string, rune or raw string
// literal that starts at src[i].
func skipQuoted(src []byte, i int) int {
	q := src[i]
	for j := i + 1; j < len(src); j++ {
		switch src[j] {
		case '\\':
			if q != '`' {
				j++
			}
		case q:
			return j + 1
		}
	}
	return len(src)
}

// isLineDirective reports whether a comment is a //line or /*line
// directive, which can move the positions of everything after it.
func isLineDirective(comment []byte) bool {
	return len(comment) >= 7 && string(comment[2:7]) == "line "
}

// isWordByte reports whether c can be part of an identifier, keyword or
// number; bytes of multi-byte UTF-8 letters all count.
func isWordByte(c byte) bool {
	return c == '_' || c >= 0x80 || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}
