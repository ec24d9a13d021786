"""Every closed-form generating function, expanded and cross-checked.

All series keep exact integer (or polynomial) coefficients; nothing here
is floating point.  Each expansion is compared against a brute-force
census so the rational functions never have to be taken on faith.
"""

from runcube import enumerators as en
from runcube import embedding, graph, poset

ORDER = 14

print("Bivariate up/down enumerators N_n(u, d), coefficients of t^n:")
series = en.gf_updown_closed(ORDER)
for n in range(1, 9):
    print("  n=%d: %s" % (n, series[n].render()))

print()
print("They agree with the streamed census:")
for n in (6, 10, 14):
    assert series[n] == en.updown_polynomial(n)
    print("  n=%d: closed form == census" % n)

print()
print("Degree polynomials g_n(x) from the one-variable closed form:")
degree = en.gf_degree_closed(ORDER)
for n in range(1, 7):
    print("  g_%d = %s" % (n, degree[n].render()))

print()
print("Setting x := 1 recovers the vertex count, d/dx at 1 twice the edges:")
for n in range(1, 11):
    g = degree[n]
    total = g.evaluate({"x": 1})
    ends = g.partial_derivative("x").evaluate({"x": 1})
    print(
        "  n=%2d: g(1)=%3d vertices, g'(1)=%4d = 2 x %d edges"
        % (n, total, ends, graph.edge_count(n))
    )

print()
print("One-variable specializations collapse onto the other closed forms:")
rep = en.specialize_checks(order=30)
for line in rep.lines():
    print("  %s" % line)

print()
print("A cautionary tale: the up-degree numerator is sometimes quoted with")
print("a bare t^3 term.  That variant already disagrees with the census at")
print("t^4; the (u - 2) t^3 reading never disagrees.")
variant = en.up_gf_printed_variant().expand(8)
correct = en.up_gf().expand(8)
census4 = en.updown_polynomial(4).evaluate_at("d", 1)
print("  census at n=4:         %s" % census4.render())
print("  corrected numerator:   %s" % correct[4].render())
print("  bare t^3 variant:      %s" % variant[4].render())

print()
print("Counting maximal vertices (u := 0, d := 1 in the bivariate form):")
maximal = en.maximal_gf().expand(13)
print("  series prefix: %s" % [c.constant_term() for c in maximal[1:]])
print("  brute force:   %s" % [len(graph.maximal_vertices(k)) for k in range(1, 14)])

print()
print("Two more rational functions close out the zoo:")
rank = poset.rank_gf().expand(5)
print("  rank GF t^3 coefficient: %s" % rank[3].render())
cubes = embedding.cube_gf().expand(5)
print("  cube GF t^3 coefficient: %s" % cubes[3].render())
print("  (x^k counts induced k-cube intervals; R_3 check: %s)" % graph.count_induced_cubes(3))
