"""luspec: the graphs D(4,q) and Gamma(4,q) and their exact spectra.

Submodules:
  ff          GF(p^e) arithmetic on element indices, trace, root-count profiles
  gr9         the Galois ring GR(9,e) as the traces of its Teichmueller set
  cyclo       exact cyclotomic integers and exponential sums, Weil checks
  graphs      D(4,q), Gamma(4,q), the vertex group, Cayley realization
  reps        the vertex group's degree-q characters and conjugacy classes
  closedform  exact spectrum multisets, representatives, bipartite lift
  oracle      dense numeric spectra, multiset comparison, expansion reports
  cli         the `luspec` command-line tool
"""

from . import cyclo, ff, gr9, graphs  # noqa: F401
from .ff import FieldSpec, ff_make, field_for  # noqa: F401
from .gr9 import GR9Spec, gr9_make  # noqa: F401
from .cyclo import CycInt, cyc_spec, embed, exp_sum_field, exp_sum_gr  # noqa: F401

__version__ = "0.1.0"
