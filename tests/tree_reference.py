"""Reference copy of the tree's ring rules that the norm rules replaced:
the pi-adic valuation by repeated exact division by pi, and the canonical
unit class that inverts the unit part by the QuadInt extended Euclid
(ResidueRing.inverse). RefTree is a btree.Tree on these rules, so its
vertices and edges (children, rep_matrix) run on them too. The tests
compare the tree against it."""

from padicbianchi import btree as bt
from padicbianchi.field import exact_div


class RefTree(bt.Tree):

    def val(self, x):
        if not x:
            return bt.INF
        v = 0
        while True:
            try:
                x = exact_div(x, self.pi)
            except ValueError:
                return v
            v += 1

    def uclass(self, num, den, a):
        if not num:
            return None
        e = self.val(num) - self.val(den)
        if e >= a:
            return None
        nn = exact_div(num, self.pi ** self.val(num))
        dd = exact_div(den, self.pi ** self.val(den))
        R = self.ring(a - e)
        return (e, R.reduce(nn * R.inverse(dd)))
