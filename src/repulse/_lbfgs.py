"""Limited-memory BFGS directions for `simulate.relax`.

Plain float numerics (numpy), kept apart from the pair kernel: the memory
knows nothing of particles, only of the steps and gradients it is given.
"""

from __future__ import annotations

import math

import numpy as np

# Curvature pairs a direction remembers.  On the 1,200 acceptance-7 cells
# 16 pairs take a fifth fewer kernel evaluations than 5 (41,614 against
# 52,119), and a direction costs the same numpy calls whatever the memory.
MEMORY = 16


class Memory:
    """The last `MEMORY` curvature pairs (s, y) of a descent in R^n, s a step
    and y the change of the gradient over it, and the L-BFGS direction
    d = -H g they give at a gradient g (Liu and Nocedal, Math. Programming
    45, 1989): H is the inverse-Hessian approximation of the two-loop
    recursion from H_0 = gamma I, gamma = s.y / y.y of the newest pair, and
    H = I while no pair is stored.

    Compact form (Byrd, Nocedal and Schnabel, Math. Programming 63, 1994,
    Theorem 2.2).  With the pairs as the columns of S and Y, oldest first,
    R the upper triangle of S^T Y and D its diagonal,

        d = -gamma g + S c_s + Y c_y,      a = R^-1 S^T g,
        c_s = R^-T (gamma Y^T g - P a),    c_y = gamma a,    P = D + gamma Y^T Y.

    One array holds the pairs and g as its rows, so one product with g
    gives every s.g and y.g, and d is one product of the coefficients with
    the rows; the coefficients take three products with R^-1 and P.  Every
    product is a matrix-vector one: a matrix-matrix product would touch a
    quarter megabyte more of the BLAS's buffers, and so of the peak memory.
    `push` keeps R^-1 (a new pair adds one column to the triangle and to
    its inverse, and dropping the oldest leaves the inverse's trailing
    block), Y^T Y, D and P.

    Storage.  The s of pair j is row j and its y row MEMORY + 1 + j, the
    newest pair at j = MEMORY - 1 and zeros before the oldest, so that every
    product runs over the whole arrays; the small matrices index the pairs
    alike.  A pushed pair is written to rows MEMORY and 2 MEMORY + 1 and
    joins the window only if it is stored, shifting every pair one place
    towards the start; g is the last row.

    A pair with s.y <= 1e-300, or whose y.y underflows to 0, is not stored,
    and a direction whose g.d is not negative and finite is replaced by -g.
    """

    def __init__(self, n: int):
        m = MEMORY
        self._rows = rows = np.zeros((2 * m + 3, n))
        self._small = small = np.zeros((4, m, m))       # R^-1, Y^T Y, D, P
        self._coef, self._gamma = np.zeros(2 * m + 3), 1.0
        pairs = rows[:-1].reshape(2, m + 1, n)
        self._window, self._pushed = pairs[:, :-1], pairs[:, 1:]
        self._kept, self._moved = small[:3, :-1, :-1], small[:3, 1:, 1:]

    def direction(self, g: np.ndarray):
        """(d, g.d) at the gradient g."""
        m, rows, c, gamma = MEMORY, self._rows, self._coef, self._gamma
        ri, _, _, p = self._small
        rows[-1] = g
        u = rows @ g
        a = ri @ u[:m]
        np.matmul(ri.T, gamma * u[m + 1:-2] - p @ a, out=c[:m])
        np.multiply(a, gamma, out=c[m + 1:-2])
        c[-1] = -gamma
        d = c @ rows
        gd = float(d @ g)
        if -math.inf < gd < 0.0:
            return d, gd
        return -g, -float(u[-1])

    def push(self, t: float, d: np.ndarray, g_new: np.ndarray, g: np.ndarray) -> bool:
        """Store the pair s = t d, y = g_new - g unless it is skipped (see the
        class), the oldest going when `MEMORY` are stored; True if stored."""
        m, rows = MEMORY, self._rows
        np.multiply(d, t, out=rows[m])
        y = np.subtract(g_new, g, out=rows[-2])
        col = rows @ y      # s_j.y, s.y, y_j.y, y.y, g.y
        sy, yy = float(col[m]), float(col[-2])
        if not (sy > 1e-300 and yy > 0.0):
            return False
        self._window[...] = self._pushed
        self._kept[...] = self._moved
        ri, yty, dg, p = self._small
        np.matmul(ri[:-1, :-1], col[1:m], out=ri[:-1, -1])
        np.multiply(ri[:-1, -1], -1.0 / sy, out=ri[:-1, -1])
        ri[-1, -1] = 1.0 / sy
        yty[-1] = yty[:, -1] = col[m + 2:-1]
        dg[-1, -1] = sy
        self._gamma = gamma = sy / yy
        np.add(np.multiply(yty, gamma, out=p), dg, out=p)
        return True
