"""Rebuilding the bivariate enumerator from its five-case proof.

Run-constrained strings factor uniquely over the letters 0, 100, 11000,
1110000, ...  Group the nonzero letters into blocks (maximal runs of
adjacent letters) and tag each string by whether its first and last
blocks are a single letter: A (single, single), B (multi, single),
C (single, multi), D (multi, multi), and E for at most one block.

Each tag gets its own generating function built from the same small
factors, the five add up to the full enumerator, and everything can be
checked against a census of actual strings classified by decompose().
"""

from runcube import enumerators as en
from runcube import strings

print("Classifying a few strings:")
for word in ("0000", "1001000", "1000100", "1001000100", "1000100100", "1001000100100"):
    dec = strings.decompose(word)
    blocks = dec.blocks()
    print(
        "  %-14s letters=%-18s blocks=%s tag=%s"
        % (word, strings.factorize(word), blocks, dec.case_tag)
    )

print()
ORDER = 20
assembly = en.assemble_case_gfs(ORDER)
print("Series built per case, u^j d^k t^n coefficients at n = 8:")
for tag in "ABCDE":
    poly = assembly.cases[tag].coefficient(8)
    print("  GF_%s: %s" % (tag, poly.render()))

print()
print("Census of length-8 strings split the same way:")
census = en.case_census_polynomials(8)
for tag in "ABCDE":
    print("  %s: %s" % (tag, census[tag].render()))
    assert census[tag] == assembly.cases[tag].coefficient(8)

print()
print("The E case further splits into empty, one-letter, and one-block parts:")
for sub in ("E/zero", "E/single", "E/block"):
    print("  %s: %s" % (sub, census[sub].render()))

print()
print("Summing the five cases and shifting by t^2 recovers the closed form:")
closed = en.gf_updown_closed(ORDER)
diff = next((k for k, (a, b) in enumerate(zip(assembly.gf, closed.coeffs)) if a != b), None)
print("  first difference through t^%d: %s" % (ORDER, diff))

print()
print("The same grammar also proves a word-level identity: each word maps")
print("to a monomial recording its single letters (alpha), multi blocks")
print("(beta), letters inside multi blocks (x), and zero letters (y).")
rep = en.word_sum_identity_check(n_max=10)
checks = rep.lines()
for line in checks[-4:]:
    print("  %s" % line)
print("  (plus %d length-graded checks, all passing: %s)" % (len(checks) - 4, rep.ok))

print()
print("Full machine check at order 30 (census through length 16):")
rep = en.case_assembly_check(order=30, max_len=16)
print("  all pass: %s" % rep.ok)
