% transitive closure of a small directed graph with one cycle (b -> c -> d -> b)
edge(a, b).
edge(b, c).
edge(c, d).
edge(d, b).
edge(a, e).
edge(e, f).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
