"""Which definitions of the padicbianchi package can the commands run?

    python3 tools/reach.py [SRC]

SRC is the directory that holds the `padicbianchi` package (default: the
`src/` next to this tool). The scan reads the package's sources with `ast`
and imports nothing. It starts from `cli.main`, which dispatches the three
commands (`build`, `linv`, `accept`), from the nine `acceptance._criterion_*`
and from every module-level statement that is not a definition or an
import (those run on import). A reached definition reaches every
definition that bears a name it uses, as a bare name or as an attribute,
in any module: the scan goes by name, so it over-approximates and never
misses a call made by name. A method is reached when its class is reached
and its name is used (a dunder when its class is reached).

The definitions are the module-level functions and classes and the
methods of those classes. The KEEP table below names the definitions that
no command reaches and that stay, with the reason: the paper's cross-checks
and the names that perfbench/tracer.py wraps. What a KEEP entry reaches is
kept with it. The tool prints every definition that neither the commands
nor KEEP reach, and every KEEP entry that the commands reach or that names
no definition (the table must not go stale). It exits 1 if it printed any,
and 0 otherwise. Only the standard library is used.
"""

import ast
import os
import sys

# Definitions that no command reaches and that stay, each with its reason.
KEEP = {
    # Trifkovic's base-change factorisation (the abstract's claim) and the
    # one-variable side over Q behind it: the eigensymbols on RationalP1,
    # their lifts, and Lp_rational (which the check reaches)
    "basechange.factorization_check": "base-change factorisation",
    "basechange.find_rational_eigensymbols": "base-change factorisation",
    "basechange.lift_rational": "base-change factorisation",
    # Darmon-Orton's definition of lc by the double integral (double_integral,
    # _log_leaves, Ext2), which the closed form (lc_halves) must match
    "cocycle.lc_via_double_integral": "double-integral lc",
    # the chi-weighted pair links the cocycles to the L-values
    "cocycle.chi_weighted_oc": "chi-weighted identities",
    "cocycle.chi_weighted_lc": "chi-weighted identities",
    # p-newness: the degeneracy maps from level n/pi
    "msymb.degeneracy": "p-newness",
    # the cover tests of the tree: the open sets U(e) partition P^1
    # (Tree.act, Tree.edge_from_matrix and Tree.target are reached by name)
    "btree.Tree.contains": "tree cover",
    # names that perfbench/tracer.py install() wraps and no command calls
    "field.path_between": "tracer",
    "msymb.P1.reduce": "tracer",
    "msymb.manin_terms": "tracer",
    "ocsymb.action_matrix": "tracer",
    "ocsymb.sigma0_act": "tracer",
}


def definitions(path, module):
    """{qualified name: (node, qualified class name or None)} of one
    module, and its module-level statements that run on import."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    defs, top = {}, []
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            defs["%s.%s" % (module, node.name)] = (node, None)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds):
                        defs["%s.%s.%s" % (module, node.name, item.name)] = \
                            (item, "%s.%s" % (module, node.name))
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            top.append(node)
    return defs, top


def used_names(node):
    """The names a definition or statement uses; a class contributes its
    bases, decorators and class-level statements, not its methods."""
    if isinstance(node, ast.ClassDef):
        parts = node.bases + node.keywords + node.decorator_list + [
            item for item in node.body
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))]
    else:
        parts = [node]
    out = set()
    for part in parts:
        for sub in ast.walk(part):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def scan(src):
    """(every definition with its class and place, the definitions the
    commands reach, the definitions the commands and KEEP reach)."""
    pkg = os.path.join(src, "padicbianchi")
    defs, names = {}, set()
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            path = os.path.join(pkg, fname)
            mod_defs, top = definitions(path, fname[:-3])
            for qual, (node, cls) in mod_defs.items():
                defs[qual] = (node, cls, "%s:%d" % (path, node.lineno))
            for stmt in top:
                names |= used_names(stmt)
    roots = ["cli.main"] + ["acceptance._criterion_%d" % k
                            for k in range(1, 10)]
    commands = reach(defs, roots, names)
    kept = reach(defs, roots + sorted(KEEP), names)
    return defs, commands, kept


def reach(defs, roots, names):
    """The definitions that roots reach, given the names used on import."""
    names = set(names)
    reached = set()
    frontier = [q for q in roots if q in defs]
    while frontier:
        for qual in frontier:
            reached.add(qual)
            names |= used_names(defs[qual][0])
        frontier = []
        for qual, (node, cls, _) in defs.items():
            if qual in reached:
                continue
            if cls is None:
                hit = node.name in names
            else:
                dunder = node.name.startswith("__") and \
                    node.name.endswith("__")
                hit = cls in reached and (dunder or node.name in names)
            if hit:
                frontier.append(qual)
    return reached


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    src = argv[0] if argv else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    defs, commands, kept = scan(src)
    loose = sorted(set(defs) - kept)
    stale = sorted(q for q in KEEP if q in commands or q not in defs)
    for qual in loose:
        print("unreachable, not kept: %s  (%s)"
              % (qual, os.path.relpath(defs[qual][2])))
    for qual in stale:
        print("stale KEEP entry: %s" % qual)
    print("reach: %d definitions; %d reached from cli.main and the nine "
          "_criterion_*; %d more kept through the %d KEEP entries; %d "
          "unreachable and not kept; %d stale KEEP entries"
          % (len(defs), len(commands), len(kept - commands), len(KEEP),
             len(loose), len(stale)))
    return 1 if loose or stale else 0


if __name__ == "__main__":
    sys.exit(main())
