"""RTL netlist: cells and nets.

After HLS, "the RTL implementation flow synthesizes the HDL descriptions
into gate-level netlists" (paper Fig. 3).  Our netlist sits at the cell
level Vivado's congestion analysis works at: functional units, registers,
multiplexers, memory banks, FSMs and I/O ports connected by multi-bit
nets.  Each cell records the IR operations it implements and the function
*instance* it belongs to — the hooks back-tracing needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RTLError

#: Cell kinds (determine which device sites a cell may occupy).
CELL_KINDS = ("fu", "mux", "mem", "fsm", "port")


@dataclass
class Cell:
    """One RTL cell."""

    cell_id: int
    name: str
    kind: str
    #: placement demand
    lut: int = 0
    ff: int = 0
    dsp: int = 0
    bram18: int = 0
    #: IR operations implemented by this cell (empty for mux/fsm/port)
    op_uids: tuple[int, ...] = ()
    #: hierarchical instance path, e.g. "top/classify.0"
    instance: str = "top"
    #: function the cell was generated for
    function: str = ""

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise RTLError(f"unknown cell kind {self.kind!r}")

    @property
    def is_placeable(self) -> bool:
        return self.kind != "port" and (
            self.lut or self.ff or self.dsp or self.bram18
        )


@dataclass
class Net:
    """A multi-bit connection from one driver cell to sink cells.

    ``width`` is the number of wires — the paper's dependency-graph edge
    weight ("the actual number of wires for this connection").
    """

    net_id: int
    name: str
    driver: int
    sinks: tuple[int, ...]
    width: int
    #: uid of the IR operation whose result this net carries (if any)
    source_op: int | None = None

    def __post_init__(self) -> None:
        if self.width < 1:
            raise RTLError(f"net {self.name!r} must carry at least 1 wire")
        if not self.sinks:
            raise RTLError(f"net {self.name!r} has no sinks")

    @property
    def n_pins(self) -> int:
        return 1 + len(self.sinks)

    def endpoints(self) -> tuple[int, ...]:
        return (self.driver, *self.sinks)


class Netlist:
    """A flat RTL netlist for one design."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.cells: list[Cell] = []
        self.nets: list[Net] = []
        #: op uid -> cell ids implementing it (one per function instance)
        self.cells_of_op: dict[int, list[int]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_cell(
        self,
        name: str,
        kind: str,
        *,
        lut: int = 0,
        ff: int = 0,
        dsp: int = 0,
        bram18: int = 0,
        op_uids: tuple[int, ...] = (),
        instance: str = "top",
        function: str = "",
    ) -> Cell:
        cell = Cell(
            cell_id=len(self.cells),
            name=name,
            kind=kind,
            lut=lut,
            ff=ff,
            dsp=dsp,
            bram18=bram18,
            op_uids=op_uids,
            instance=instance,
            function=function,
        )
        self.cells.append(cell)
        for uid in op_uids:
            self.cells_of_op.setdefault(uid, []).append(cell.cell_id)
        return cell

    def add_net(
        self,
        name: str,
        driver: int,
        sinks,
        width: int,
        *,
        source_op: int | None = None,
    ) -> Net | None:
        """Add a net; returns None for degenerate (self-loop-only) nets."""
        sink_tuple = tuple(s for s in dict.fromkeys(sinks) if s != driver)
        if not sink_tuple:
            return None
        if driver >= len(self.cells):
            raise RTLError(f"net {name!r}: driver cell {driver} does not exist")
        for s in sink_tuple:
            if s >= len(self.cells):
                raise RTLError(f"net {name!r}: sink cell {s} does not exist")
        net = Net(
            net_id=len(self.nets),
            name=name,
            driver=driver,
            sinks=sink_tuple,
            width=max(1, width),
            source_op=source_op,
        )
        self.nets.append(net)
        return net

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def cell(self, cell_id: int) -> Cell:
        return self.cells[cell_id]

    def n_cells(self) -> int:
        return len(self.cells)

    def n_nets(self) -> int:
        return len(self.nets)

    def placeable_cells(self) -> list[Cell]:
        return [c for c in self.cells if c.is_placeable]

    def port_cells(self) -> list[Cell]:
        return [c for c in self.cells if c.kind == "port"]

    def nets_of_cell(self) -> dict[int, list[int]]:
        """cell id -> net ids touching it (computed on demand)."""
        index: dict[int, list[int]] = {}
        for net in self.nets:
            for endpoint in net.endpoints():
                index.setdefault(endpoint, []).append(net.net_id)
        return index
