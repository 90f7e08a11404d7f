"""Exact evaluation of divisor-function convolution sums.

W_(a,b)(n) = sum of sigma(l) sigma(m) over nonnegative solutions of
a*l + b*m = n is evaluated in closed form for coprime (a, b) whose product
is 2^nu * m with nu <= 3 and m odd squarefree, by expanding
(a L(q^a) - b L(q^b))^2 in a weight-4 modular form basis built from
Eisenstein series and eta quotients.  The closed forms feed representation
counts for two families of octonary quadratic forms.
"""

__version__ = "0.1.0"
