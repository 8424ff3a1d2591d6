#!/usr/bin/env python3
"""Option census: every option field must have a caller that sets it to
something other than its default.

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
field. Exit 0 prints the struct and field counts.

Usage: python3 tools/option_census.py
"""

import collections
import pathlib
import re
import sys

SEARCH_DIRS = ("src", "bench", "tests", "tools", "examples", "perfbench")
SOURCE_SUFFIXES = {".h", ".cc"}

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


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


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
    if unset or default_only:
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
        return 1
    print(f"option_census: OK — {structs} option structs, {len(fields)} "
          f"fields, every one set by some caller to a non-default value")
    return 0


if __name__ == "__main__":
    sys.exit(main())
