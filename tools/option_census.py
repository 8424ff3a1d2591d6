#!/usr/bin/env python3
"""Option and function census: every option field must have a caller that
sets it to something other than its default, and every function declared
in src/**/*.h must have a caller.

For each field of a `*Config` / `*Options` / `JitClaims` struct declared in
src/**/*.h, look for a setter anywhere under src/, bench/, tests/, tools/,
examples/ or perfbench/:

    .field =       designated initializer or member assignment
    .field.sub =   a sub-field of a struct-valued option is set
    ->field =      assignment through a pointer
    &T::field      a member pointer (the storm CLIs' flag tables)

Several option structs share field names (`engine`, `supervisor`, `seed`),
so a member setter is credited by its receiver: `x.field = ...` counts for
struct T only when `x` is declared as a T in the same file, or is itself an
option field of type T. A receiver whose type cannot be read off the source
(a designated initializer, `auto`, a call result) is credited to every
struct that has the field, so the census can miss a dead knob but never
reports a live one.

A field nothing sets is a constant pretending to be a knob, and so is a
field whose declared default is a literal (`= 3`, `{true}`) that every
setter assigns again with a plain `.field = 3`. Exit 1 and list every such
field.

A function declared at namespace or class scope in src/**/*.h is uncalled
when its name appears as a token nowhere in the same directories once
comments and string literals are blanked, apart from the declarations and
definitions of functions by that name. Constructors, destructors,
operators and `override`s are skipped. Names are matched as tokens, not by
owner, so a name that a live function shares counts as called: like the
option half, the census can miss dead code but never reports live code.
Tests count as callers.

Exit 1 and list every unset field, default-only field and uncalled
function. Exit 0 prints the struct, field and function counts.

Usage: python3 tools/option_census.py
"""

import collections
import pathlib
import re
import sys

SEARCH_DIRS = ("src", "bench", "tests", "tools", "examples", "perfbench")
SOURCE_SUFFIXES = {".h", ".cc", ".cpp"}

STRUCT_RE = re.compile(
    r"^struct (\w+(?:Config|Options)|JitClaims) \{\n(.*?)^\};", re.M | re.S)
# One declarator per line: type, name, optional `= init` or `{init}`.
FIELD_RE = re.compile(
    r"^\s*(?!using\b|static\b|friend\b)([\w:<>,*&\s]+?)[\s*&]+(\w+)"
    r"\s*(?:=([^;]*)|\{([^;]*)\})?;\s*$")
# A default the census can compare setters against: a number, bool,
# nullptr or string literal.
LITERAL_RE = re.compile(r'^(?:-?[\d.]+[uUlLfF]*|true|false|nullptr|"[^"]*")$')
# `Type name`, `Type& name`, `const ns::Type* name` followed by a
# declarator terminator: the receiver types the census can read off.
DECL_RE = re.compile(r"\b(?:\w+::)*([A-Z]\w*)\s*(?:const\s*)?[&*]?\s+(\w+)"
                     r"\s*(?=[;={(,)\[])")
ASSIGN = r"\s*[-+*/|&]?=(?!=)"
# Comments, then string and character literals (raw strings included).
LEXEME_RE = re.compile(
    r"(//[^\n]*|/\*.*?\*/)"
    r"|(R\"(\w*)\(.*?\)\3\"|\"(?:\\.|[^\"\\\n])*\""
    r"|(?<!\w)'(?:\\(?:x[0-9a-fA-F]+|[0-7]{1,3}|.)|[^'\\\n])')",
    re.S)
PREPROCESSOR_RE = re.compile(r"^[ \t]*#(?:[^\n]*\\\n)*[^\n]*", re.M)
TOKEN_RE = re.compile(r"\b[A-Za-z_]\w*")


def blank(text):
    """Spaces for every non-newline character, so offsets and lines keep."""
    return re.sub(r"[^\n]", " ", text)


def strip_comments(text, literals=False):
    """Drops comments and, with `literals`, the inside of every string and
    character literal; their line breaks stay, so line numbers keep."""
    def sub(m):
        lexeme = m.group()
        breaks = "\n" * lexeme.count("\n")
        if m.group(1):
            return breaks or " "
        return lexeme[-1] + breaks + lexeme[-1] if literals else lexeme
    return LEXEME_RE.sub(sub, text)


def base_type(decl_type):
    """`const ebpf::ExecOptions` -> `ExecOptions`."""
    words = re.findall(r"[\w:]+", decl_type)
    return words[-1].split("::")[-1] if words else ""


def declared_options(root):
    """[(struct, field, field_type, default, path)] for every option field;
    `default` is the declared literal initializer, or None."""
    out = []
    for path in sorted((root / "src").rglob("*.h")):
        text = strip_comments(path.read_text())
        for struct in STRUCT_RE.finditer(text):
            for line in struct.group(2).splitlines():
                if "(" in line.split("=")[0]:
                    continue  # a member function, not a field
                m = FIELD_RE.match(line)
                if m:
                    init = (m.group(3) or m.group(4) or "").strip()
                    out.append((struct.group(1), m.group(2),
                                base_type(m.group(1)),
                                init if LITERAL_RE.match(init) else None,
                                path.relative_to(root)))
    return out


def set_fields(root, fields):
    """(struct, field) -> the values its setters assign: the right-hand
    side of each plain `.field = value`, None for any other setter."""
    owners = collections.defaultdict(set)  # field name -> structs with it
    field_types = collections.defaultdict(set)  # field name -> its types
    for s, f, t, *_ in fields:
        owners[f].add(s)
        field_types[f].add(t)
    names = "|".join(sorted(map(re.escape, owners), key=len, reverse=True))
    member_set = re.compile(
        rf"(\w*)\s*(?:\)\s*)?(?:\.|->)({names})\b"
        rf"(?:\s*=(?!=)\s*([^;,}}\n]*)|{ASSIGN}|(?:\.\w+)+{ASSIGN})")
    member_ptr = re.compile(rf"&(?:\w+::)*(\w+)::({names})\b")

    found = collections.defaultdict(list)
    for d in SEARCH_DIRS:
        for path in sorted((root / d).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            text = strip_comments(path.read_text(errors="replace"))
            local_types = collections.defaultdict(set)
            for m in DECL_RE.finditer(text):
                local_types[m.group(2)].add(m.group(1))
            for m in member_ptr.finditer(text):
                found[(m.group(1), m.group(2))].append(None)
            for m in member_set.finditer(text):
                receiver, field, value = m.groups()
                types = local_types[receiver] | field_types.get(receiver,
                                                                set())
                # An unreadable receiver type credits every owner.
                hits = (owners[field] & types) or (
                    set() if types else owners[field])
                for s in hits:
                    found[(s, field)].append(
                        value.strip() if value is not None else None)
    return found


# A brace that opens a scope whose statements are declarations; every
# other brace opens a body or an initializer, which the census skips.
SCOPE_RE = re.compile(r"\s*(namespace|class|struct)\b"
                      r"(?:\s*alignas\s*\([^)]*\))?\s*(\w*)")
ACCESS_RE = re.compile(r"(?:\s*(?:public|private|protected)\s*:(?!:))+")
ATTRIBUTE_RE = re.compile(r"\[\[.*?\]\]", re.S)
# `[qualifiers] type [Class::]name(`: every word before the name, template
# arguments included, belongs to the return type.
FUNC_HEAD_RE = re.compile(
    r"\s*(?P<type>(?:[\w:]+(?:\s*<[^;{}]*?>)?[\s*&]+)+)"
    r"(?P<qual>(?:\w+(?:<[^;{}()]*?>)?::)*)(?P<name>\w+)\s*\((?P<rest>.*)",
    re.S)
DELIMITER_RE = re.compile(r"[;{}]")
BRACE_RE = re.compile(r"[{}]")


def skip_template_prefix(head):
    """Offset just past a leading `template <...>`, or 0."""
    m = re.match(r"\s*template\s*<", head)
    if not m:
        return 0
    depth, i = 1, m.end()
    while i < len(head) and depth:
        depth += {"<": 1, ">": -1}.get(head[i], 0)
        i += 1
    return i


def function_head(head, scope):
    """(name, qualified name, name offset in head) when `head` declares or
    defines a function other than a constructor, destructor, operator or
    override; else None."""
    labels = ACCESS_RE.match(head)
    if labels:
        head = blank(labels.group()) + head[labels.end():]
    if "[[" in head:
        head = ATTRIBUTE_RE.sub(lambda m: blank(m.group()), head)
    start = skip_template_prefix(head)
    m = FUNC_HEAD_RE.match(head, start)
    if not m or re.search(r"\boperator\b", head):
        return None
    name, quals = m.group("name"), re.findall(r"\w+(?=(?:<[^:]*>)?::)",
                                              m.group("qual"))
    owner = quals[-1] if quals else (scope[-1] if scope else "")
    if name == owner or re.search(r"\boverride\b", m.group("rest")):
        return None
    qualified = "::".join([c for c in scope if c] + quals + [name])
    return name, qualified, m.start("name")


def scope_functions(text):
    """[(name, qualified name, offset)] for every function declared or
    defined at namespace or class scope of `text` (comments, literals and
    preprocessor lines already blanked)."""
    out, scope = [], []  # scope: class name, or "" for a namespace
    head_start = 0
    delimiter = DELIMITER_RE.search(text)
    while delimiter:
        c, i = delimiter.group(), delimiter.start()
        head = text[head_start:i]
        opened = c == "{" and SCOPE_RE.match(head, skip_template_prefix(head))
        if c == "}":
            if scope:
                scope.pop()
        elif opened:
            is_class = opened.group(1) != "namespace"
            scope.append(opened.group(2) if is_class else "")
        else:
            found = "(" in head and function_head(head, scope)
            if found:
                name, qualified, at = found
                out.append((name, qualified, head_start + at))
            depth = c == "{"  # a body or initializer: skip to its close
            while depth:
                brace = BRACE_RE.search(text, i + 1)
                if not brace:
                    return out
                i = brace.start()
                depth += 1 if brace.group() == "{" else -1
        head_start = i + 1
        delimiter = DELIMITER_RE.search(text, head_start)
    return out


def uncalled_functions(root):
    """(number of header functions checked, [(qualified name, path:line)]
    of each one whose name appears nowhere but in the declarations and
    definitions of functions by that name)."""
    uses = collections.Counter()
    declared = []
    for d in SEARCH_DIRS:
        for path in sorted((root / d).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            text = strip_comments(path.read_text(errors="replace"),
                                  literals=True)
            functions = scope_functions(PREPROCESSOR_RE.sub(
                lambda m: blank(m.group()), text))
            own = {at for _, _, at in functions}
            for m in TOKEN_RE.finditer(text):
                if m.start() not in own:
                    uses[m.group()] += 1
            if d == "src" and path.suffix == ".h":
                for name, qualified, at in functions:
                    line = text.count("\n", 0, at) + 1
                    declared.append(
                        (name, qualified, f"{path.relative_to(root)}:{line}"))
    first_seen = {}
    for name, qualified, where in declared:
        first_seen.setdefault(qualified, (name, where))
    uncalled = [(q, where) for q, (name, where) in first_seen.items()
                if not uses[name]]
    return len(first_seen), uncalled


def main():
    root = pathlib.Path(__file__).resolve().parent.parent
    fields = declared_options(root)
    if not fields:
        print("option_census: no option structs found under src/")
        return 2
    found = set_fields(root, fields)
    unset = [(s, f, p) for s, f, _, _, p in fields if (s, f) not in found]
    default_only = [(s, f, d, p) for s, f, _, d, p in fields
                    if d is not None and found.get((s, f))
                    and all(v == d for v in found[(s, f)])]
    structs = len({s for s, *_ in fields})
    checked, uncalled = uncalled_functions(root)
    failed = False
    if unset or default_only:
        failed = True
        if unset:
            print(f"option_census: {len(unset)} of {len(fields)} fields in "
                  f"{structs} option structs have no setter in "
                  f"{', '.join(SEARCH_DIRS)}:")
        for s, f, p in unset:
            print(f"  {s}::{f}  ({p})")
        if default_only:
            print(f"option_census: {len(default_only)} of {len(fields)} "
                  f"fields are only ever set to their default:")
        for s, f, d, p in default_only:
            print(f"  {s}::{f} = {d}  ({p})")
        print("Make each a named constant at its point of use, or add the "
              "caller that sets it to a different value.")
    if uncalled:
        failed = True
        print(f"option_census: {len(uncalled)} of {checked} functions "
              f"declared in src/**/*.h have no caller in "
              f"{', '.join(SEARCH_DIRS)}:")
        for q, where in uncalled:
            print(f"  {q}  ({where})")
        print("Delete each, or add the caller that needs it.")
    if failed:
        return 1
    print(f"option_census: OK — {structs} option structs, {len(fields)} "
          f"fields, every one set by some caller to a non-default value; "
          f"{checked} functions, every one called")
    return 0

if __name__ == "__main__":
    sys.exit(main())
