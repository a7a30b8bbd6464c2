"""Line-oriented text formats for algebras, modules and bimodules.

Algebra files:

    algebra <name>
    field rational | field gf <p>
    convention right-to-left | left-to-right    # optional, right-to-left default
    vertices <id> ...
    arrow <id> : <vertex> -> <vertex>
    relations
      <term> [+|- <term>]...                    # one relation per line
    end

A term is ``[<int>[/<int>] *] <arrow> [* <arrow>]...``; under the default
right-to-left convention ``a*b`` applies ``b`` first.  ``#`` starts a comment.

Module files:

    module <name> over <algebra-name>
    dim <vertex> = <int>
    map <arrow> = [[...],[...]]                 # rows = target dim

Bimodule files use the same shape with ``bimodule <name> over <A> <B>`` and
the product-algebra vertex/arrow names.
"""

from __future__ import annotations

import re

from .algebra import AlgebraHandle, Path, Presentation, Quiver
from .linalg import FieldSpec, Matrix, stored_row
from .modules import Rep, validate_rep

__all__ = ["ParseError", "parse_algebra", "parse_module", "algebra_to_text"]


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}, column {col}: {message}")


def _strip_comment(line: str) -> str:
    i = line.find("#")
    return line if i < 0 else line[:i]


_SCALAR_RE = re.compile(r"^-?\d+(/\d+)?$")


class _Lines:
    def __init__(self, text: str):
        self.raw = text.splitlines()

    def logical(self):
        for i, line in enumerate(self.raw, start=1):
            body = _strip_comment(line)
            if body.strip():
                yield i, body


def _parse_relation_line(lineno: int, body: str, quiver: Quiver, field: FieldSpec, convention: str):
    # make +, -, * standalone tokens, then split on whitespace
    spaced = body.replace("*", " * ").replace("+", " + ").replace("-", " - ")
    tokens = spaced.split()
    if not tokens:
        raise ParseError(lineno, 1, "empty relation")
    # split into signed terms
    terms = []
    sign = 1
    current: list[str] = []
    expecting_term = True
    for tok in tokens:
        if tok in ("+", "-"):
            if expecting_term:
                if tok == "-":
                    sign = -sign
                continue
            terms.append((sign, current))
            current = []
            sign = 1 if tok == "+" else -1
            expecting_term = True
        else:
            current.append(tok)
            expecting_term = False
    if not current:
        raise ParseError(lineno, 1, "relation ends with a dangling sign")
    terms.append((sign, current))

    parsed = []
    for sign, toks in terms:
        # toks look like: [scalar, '*',] arrow ['*', arrow]...
        parts = [t for t in toks if t != "*"]
        stars = len([t for t in toks if t == "*"])
        if not parts:
            raise ParseError(lineno, 1, "empty term")
        coeff = field.one()
        arrows = parts
        if _SCALAR_RE.match(parts[0]) and parts[0] not in quiver.a_index:
            try:
                coeff = field.parse_scalar(parts[0])
            except ZeroDivisionError:
                raise ParseError(lineno, 1, f"scalar {parts[0]} is not defined in {field.name}")
            arrows = parts[1:]
            if not arrows:
                raise ParseError(lineno, 1, "term has a scalar but no arrows")
        if stars != len(parts) - 1:
            raise ParseError(lineno, 1, "malformed term: factors must be joined by '*'")
        idxs = []
        for name in arrows:
            if name not in quiver.a_index:
                raise ParseError(lineno, body.find(name) + 1, f"unknown arrow {name!r}")
            idxs.append(quiver.a_index[name])
        if convention == "right-to-left":
            idxs.reverse()
        src = quiver.a_src[idxs[0]]
        v = src
        for a in idxs:
            if quiver.a_src[a] != v:
                raise ParseError(lineno, 1, "non-composable word")
            v = quiver.a_tgt[a]
        if sign < 0:
            coeff = field.neg(coeff)
        parsed.append((Path(src, v, tuple(idxs)), coeff))
    # combine duplicate words
    acc: dict[Path, object] = {}
    for p, c in parsed:
        acc[p] = acc.get(p, 0) + c
    combined = stored_row(acc.items(), field.p)
    if not combined:
        raise ParseError(lineno, 1, "relation cancels to zero")
    return tuple(sorted(combined.items(), key=lambda kv: (len(kv[0].arrows), kv[0].arrows)))


def parse_algebra(text: str) -> Presentation:
    """Parse an algebra file into a presentation (not yet completed)."""
    name = ""
    field: FieldSpec | None = None
    convention = "right-to-left"
    vertices: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    relations = []
    in_relations = False
    quiver: Quiver | None = None
    seen_end = False
    for lineno, body in _Lines(text).logical():
        tokens = body.split()
        head = tokens[0]
        if in_relations:
            if head == "end":
                in_relations = False
                seen_end = True
                continue
            if quiver is None:
                quiver = Quiver(vertices, arrows)
            relations.append(
                _parse_relation_line(lineno, body, quiver, field or FieldSpec(), convention)
            )
            continue
        if seen_end and head in ("field", "convention", "vertices", "arrow"):
            raise ParseError(lineno, 1, f"{head!r} must come before the relations block")
        if head == "algebra":
            if len(tokens) != 2:
                raise ParseError(lineno, 1, "expected: algebra <name>")
            name = tokens[1]
        elif head == "field":
            if tokens[1:] == ["rational"]:
                field = FieldSpec()
            elif len(tokens) == 3 and tokens[1] == "gf":
                try:
                    field = FieldSpec(int(tokens[2]))
                except ValueError as e:
                    raise ParseError(lineno, body.find(tokens[2]) + 1, str(e))
            else:
                raise ParseError(lineno, 1, "expected: field rational | field gf <p>")
        elif head == "convention":
            if len(tokens) != 2 or tokens[1] not in ("right-to-left", "left-to-right"):
                raise ParseError(lineno, 1, "expected: convention right-to-left|left-to-right")
            convention = tokens[1]
        elif head == "vertices":
            if len(tokens) < 2:
                raise ParseError(lineno, 1, "expected at least one vertex name")
            vertices.extend(tokens[1:])
        elif head == "arrow":
            m = tokens[1:]
            if len(m) != 5 or m[1] != ":" or m[3] != "->":
                raise ParseError(lineno, 1, "expected: arrow <id> : <vertex> -> <vertex>")
            aname, src, tgt = m[0], m[2], m[4]
            for v in (src, tgt):
                if v not in vertices:
                    raise ParseError(lineno, body.find(v, body.find(":")) + 1, f"unknown vertex {v!r}")
            if aname in [a[0] for a in arrows]:
                raise ParseError(lineno, 1, f"duplicate arrow name {aname!r}")
            arrows.append((aname, src, tgt))
        elif head == "relations":
            in_relations = True
        else:
            raise ParseError(lineno, 1, f"unknown directive {head!r}")
    if in_relations and not seen_end:
        raise ParseError(len(_Lines(text).raw) + 1, 1, "relations block not closed with 'end'")
    if field is None:
        field = FieldSpec()
    if quiver is None:
        quiver = Quiver(vertices, arrows)
    return Presentation(field, quiver, relations, convention, name)


def _parse_matrix_literal(lineno: int, text: str, field: FieldSpec, rows: int, cols: int) -> Matrix:
    s = text.strip().replace(" ", "")
    if s in ("[]", "[[]]") and (rows == 0 or cols == 0):
        return Matrix.zero(field, rows, cols)
    if not (s.startswith("[[") and s.endswith("]]")):
        raise ParseError(lineno, 1, "matrix literal must look like [[a,b],[c,d]]")
    body = s[2:-2]
    row_strs = body.split("],[")
    data = []
    for rs in row_strs:
        # an empty row is a row of a matrix with no columns; an empty entry
        # inside a row is an error
        entries = rs.split(",") if rs else []
        try:
            data.append([field.parse_scalar(e) for e in entries])
        except (ValueError, ZeroDivisionError):
            raise ParseError(lineno, 1, f"bad matrix entry in {rs!r}")
    if len(data) != rows or any(len(r) != cols for r in data):
        got = f"{len(data)}x{len(data[0]) if data else 0}"
        raise ParseError(lineno, 1, f"matrix shape mismatch: expected {rows}x{cols}, got {got}")
    return Matrix(field, rows, cols, data)


def parse_module(text: str, A: AlgebraHandle):
    """Parse a module (or bimodule) file against a completed algebra.

    Returns (name, Rep); the representation is validated against the
    algebra's relations, and the first violated relation is reported at the
    line of the module header.
    """
    q = A.quiver
    f = A.field
    name = ""
    dims = [0] * q.n_vertices
    dim_seen: set[int] = set()
    mat_lines: dict[int, tuple[int, str]] = {}
    header_line = 0
    for lineno, body in _Lines(text).logical():
        tokens = body.split()
        head = tokens[0]
        if head in ("module", "bimodule"):
            if header_line:
                raise ParseError(lineno, 1, "repeated module header")
            if len(tokens) < 4 or tokens[2] != "over":
                raise ParseError(lineno, 1, f"expected: {head} <name> over <algebra>")
            name = tokens[1]
            if head == "bimodule":
                if A.product is None:
                    raise ParseError(lineno, 1, "bimodule file given for a non-product algebra")
                expected = [A.product.left.name, A.product.right.name]
            else:
                expected = [A.name] if A.name else []
            declared = tokens[3:]
            if expected and declared != expected:
                raise ParseError(
                    lineno,
                    1,
                    f"header names {' '.join(declared)!r} do not match {' '.join(expected)!r}",
                )
            header_line = lineno
        elif head == "dim":
            if len(tokens) != 4 or tokens[2] != "=":
                raise ParseError(lineno, 1, "expected: dim <vertex> = <int>")
            if tokens[1] not in q.v_index:
                raise ParseError(lineno, body.find(tokens[1]) + 1, f"unknown vertex {tokens[1]!r}")
            try:
                d = int(tokens[3])
                if d < 0:
                    raise ValueError
            except ValueError:
                raise ParseError(lineno, 1, f"bad dimension {tokens[3]!r}")
            v = q.v_index[tokens[1]]
            if v in dim_seen:
                raise ParseError(lineno, 1, f"repeated dim line for vertex {tokens[1]!r}")
            dim_seen.add(v)
            dims[v] = d
        elif head == "map":
            if len(tokens) < 4 or tokens[2] != "=":
                raise ParseError(lineno, 1, "expected: map <arrow> = [[...]]")
            if tokens[1] not in q.a_index:
                raise ParseError(lineno, body.find(tokens[1]) + 1, f"unknown arrow {tokens[1]!r}")
            if q.a_index[tokens[1]] in mat_lines:
                raise ParseError(lineno, 1, f"repeated map line for arrow {tokens[1]!r}")
            mat_lines[q.a_index[tokens[1]]] = (lineno, body.split("=", 1)[1])
        else:
            raise ParseError(lineno, 1, f"unknown directive {head!r}")
    if not header_line:
        raise ParseError(1, 1, "missing module header")
    mats = []
    for a in range(q.n_arrows):
        r, c = dims[q.a_tgt[a]], dims[q.a_src[a]]
        if a in mat_lines:
            lineno, lit = mat_lines[a]
            mats.append(_parse_matrix_literal(lineno, lit, f, r, c))
        else:
            mats.append(Matrix.zero(f, r, c))
    rep = Rep(A, dims, mats)
    problems = validate_rep(rep)
    if problems:
        raise ParseError(header_line, 1, problems[0])
    return name, rep


# -- printing ---------------------------------------------------------------


def written_arrow_names(A: AlgebraHandle, p: Path) -> list[str]:
    """The arrow names of p in the order A's convention writes them."""
    names = [A.quiver.arrow_name(a) for a in p.arrows]
    if A.presentation.convention == "right-to-left":
        names.reverse()
    return names


def format_path(A: AlgebraHandle, p: Path) -> str:
    if not p.arrows:
        return f"e_{A.quiver.vertices[p.source]}"
    return "*".join(written_arrow_names(A, p))


def format_element(A: AlgebraHandle, items) -> str:
    f = A.field
    parts = []
    for i, (p, c) in enumerate(items):
        word = format_path(A, p)
        if f.p is None:
            negative = c < 0
            mag = -c if negative else c
            coeff = "" if mag == 1 else f"{mag} * "
            if i == 0:
                parts.append(("-" if negative else "") + coeff + word)
            else:
                parts.append(("- " if negative else "+ ") + coeff + word)
        else:
            coeff = "" if c == 1 else f"{c} * "
            parts.append((coeff + word) if i == 0 else "+ " + coeff + word)
    return " ".join(parts)


def rep_to_text(rep: Rep, name: str) -> str:
    """Emit a module (or bimodule) file for a representation."""
    A = rep.algebra
    q = A.quiver
    f = A.field
    if A.product is not None:
        left, right = A.product.left, A.product.right
        lines = [f"bimodule {name} over {left.name} {right.name}"]
    else:
        lines = [f"module {name} over {A.name}"]
    for v, d in zip(q.vertices, rep.dims):
        if d:
            lines.append(f"dim {v} = {d}")
    for a in range(q.n_arrows):
        m = rep.mats[a]
        if m.is_zero():
            continue
        rows = ",".join(
            "[" + ",".join(f.format_scalar(row.get(j, 0)) for j in range(m.cols)) + "]" for row in m.entries
        )
        lines.append(f"map {q.arrow_name(a)} = [{rows}]")
    return "\n".join(lines) + "\n"


def algebra_to_text(A: AlgebraHandle) -> str:
    """Emit an algebra file that parses back to the same presentation."""
    q = A.quiver
    lines = [f"algebra {A.name or 'unnamed'}"]
    lines.append(f"field {A.field.name}")
    lines.append(f"convention {A.presentation.convention}")
    lines.append("vertices " + " ".join(q.vertices))
    for name, s, t in q.arrows:
        lines.append(f"arrow {name} : {s} -> {t}")
    if A.presentation.relations:
        lines.append("relations")
        for rel in A.presentation.relations:
            items = sorted(rel, key=lambda kv: (len(kv[0].arrows), kv[0].arrows), reverse=True)
            lines.append("  " + format_element(A, items))
        lines.append("end")
    return "\n".join(lines) + "\n"
