"""RTL netlist model and elaboration from HLS results."""

from repro.rtl.netlist import CELL_KINDS, Cell, Net, Netlist
from repro.rtl.generate import RTLGenerator, generate_netlist

__all__ = [
    "CELL_KINDS",
    "Cell",
    "Net",
    "Netlist",
    "RTLGenerator",
    "generate_netlist",
]
