"""RIEP — the Resource Information Exchange Protocol.

The paper (§3.1) requires "a protocol for managing distributed IPC (routing,
security and other management tasks)" that populates the RIB.  RIEP here is
a CDAP-style object protocol: six operations on named RIB objects plus a
connect/authenticate exchange used by enrollment.  Every management
conversation in the architecture — enrollment, directory dissemination,
link-state flooding, flow allocation — is a sequence of RIEP messages, so
the wire vocabulary of the whole management plane lives in this module.

:class:`RiepMessage` is the unit carried by a
:class:`~repro.core.pdu.ManagementPdu`.  :class:`InvokeTable` provides
request/response matching with timeouts for the handful of RPC-like
exchanges (enrollment, flow allocation).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional

from ..sim.engine import Engine

# Operation codes (the CDAP verbs the paper's reference model uses).
M_CONNECT = "M_CONNECT"      # start an application/management connection
M_CONNECT_R = "M_CONNECT_R"  # response (carries auth result)
M_RELEASE = "M_RELEASE"      # end a management connection
M_CREATE = "M_CREATE"        # create a RIB object at the peer
M_CREATE_R = "M_CREATE_R"
M_DELETE = "M_DELETE"
M_DELETE_R = "M_DELETE_R"
M_READ = "M_READ"
M_READ_R = "M_READ_R"
M_WRITE = "M_WRITE"
M_WRITE_R = "M_WRITE_R"
M_START = "M_START"          # start a task/flow at the peer
M_START_R = "M_START_R"
M_STOP = "M_STOP"
M_STOP_R = "M_STOP_R"

RESULT_OK = 0
RESULT_ERROR = 1
RESULT_DENIED = 2
RESULT_NOT_FOUND = 3

_RESPONSES = {
    M_CONNECT: M_CONNECT_R, M_CREATE: M_CREATE_R, M_DELETE: M_DELETE_R,
    M_READ: M_READ_R, M_WRITE: M_WRITE_R, M_START: M_START_R, M_STOP: M_STOP_R,
}


def response_opcode(opcode: str) -> str:
    """The reply opcode paired with a request opcode."""
    try:
        return _RESPONSES[opcode]
    except KeyError:
        raise ValueError(f"{opcode} has no response form")


class RiepMessage:
    """One RIEP message.

    Attributes
    ----------
    opcode:
        One of the ``M_*`` constants.
    obj:
        RIB object path the operation applies to (e.g. ``/routing/lsa/3``).
    value:
        Payload for the operation (dict/str/numbers; kept JSON-like).
    invoke_id:
        Correlates a response with its request; 0 = unsolicited.
    result:
        ``RESULT_*`` code, meaningful on ``*_R`` messages.
    decoded:
        The live object ``value`` encodes (an LSA, a directory record,
        an enrollment snapshot), set by the member that built the value
        and handed along with every copy of the message, so the members
        of a DIF share one immutable object instead of each decoding
        its own.  Process-local: the codec never encodes it, so a
        message that crossed a cut arrives with ``decoded`` None and
        its first reader decodes ``value`` once.
    """

    __slots__ = ("opcode", "obj", "value", "invoke_id", "result",
                 "decoded", "_size_cache")

    def __init__(self, opcode: str, obj: str = "", value: Any = None,
                 invoke_id: int = 0, result: int = RESULT_OK,
                 decoded: Any = None) -> None:
        self.opcode = opcode
        self.obj = obj
        self.value = value
        self.invoke_id = invoke_id
        self.result = result
        self.decoded = decoded
        self._size_cache: Optional[int] = None

    def reply(self, value: Any = None, result: int = RESULT_OK,
              decoded: Any = None) -> "RiepMessage":
        """Build the response message for this request."""
        return RiepMessage(response_opcode(self.opcode), obj=self.obj,
                           value=value, invoke_id=self.invoke_id,
                           result=result, decoded=decoded)

    def estimate_size(self) -> int:
        """Approximate encoded size in bytes (for link serialization).

        The estimate is cached: a message's payload must not be mutated
        after it is first handed to a PDU (flooding re-reads the size at
        every hop, and the recursive walk over a large LSA value was a
        measured hot spot at thousand-member scale).
        """
        if self._size_cache is None:
            body = len(self.opcode) + len(self.obj) + 12
            if self.value is not None:
                body += _estimate_value_size(self.value)
            self._size_cache = body
        return self._size_cache

    def encode(self) -> tuple:
        """Pure-data wire form (tagged tuple; carries the size
        estimate so a decoded copy charges links identically)."""
        from .codec import encode
        return encode(self)

    @staticmethod
    def decode(data: tuple) -> "RiepMessage":
        """Rebuild a message from its wire form."""
        from .codec import decode
        message = decode(data)
        if not isinstance(message, RiepMessage):
            raise TypeError(f"wire data decodes to "
                            f"{type(message).__name__}, not a RiepMessage")
        return message

    @property
    def ok(self) -> bool:
        """True for successful responses."""
        return self.result == RESULT_OK

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RIEP {self.opcode} {self.obj} id={self.invoke_id} r={self.result}>"


def _estimate_value_size(value: Any) -> int:
    """Rough, deterministic encoded-size estimate for JSON-like values.

    None and bools cost 1 byte, numbers 8, strings and bytes their
    length, a container 2 plus its members (a dict's keys and values
    both), and any other object a flat 32.  The walk keeps an explicit
    stack and dispatches on the exact type of the common cases
    (``str``/``int``/``float`` leaves in ``list``/``tuple``/``dict``);
    subclasses, bools, bytes and sets take the ``isinstance`` chain.
    """
    total = 0
    stack = [value]
    pop = stack.pop
    extend = stack.extend
    while stack:
        item = pop()
        kind = type(item)
        if kind is str:
            total += len(item)
        elif kind is int or kind is float:
            total += 8
        elif kind is tuple or kind is list:
            total += 2
            extend(item)
        elif kind is dict:
            total += 2
            extend(item.keys())
            extend(item.values())
        elif item is None or isinstance(item, bool):
            total += 1
        elif isinstance(item, (int, float)):
            total += 8
        elif isinstance(item, (str, bytes)):
            total += len(item)
        elif isinstance(item, (list, tuple, set, frozenset)):
            total += 2
            extend(item)
        elif isinstance(item, dict):
            total += 2
            extend(item.keys())
            extend(item.values())
        else:
            total += 32   # arbitrary objects: a flat record
    return total


ResponseHandler = Callable[[Optional[RiepMessage]], None]


class InvokeTable:
    """Pending-request table: allocates invoke-ids, matches responses,
    and times out requests (handler receives ``None`` on timeout)."""

    def __init__(self, engine: Engine, default_timeout: float = 5.0) -> None:
        self._engine = engine
        self._default_timeout = default_timeout
        self._ids = itertools.count(1)
        self._pending: Dict[int, tuple] = {}

    def new_request(self, message: RiepMessage, handler: ResponseHandler,
                    timeout: Optional[float] = None) -> RiepMessage:
        """Assign an invoke-id to ``message`` and register ``handler``."""
        invoke_id = next(self._ids)
        message.invoke_id = invoke_id
        delay = self._default_timeout if timeout is None else timeout
        # one raw engine event instead of a Timer wrapper: requests are
        # made (and almost always answered, cancelling the event) for
        # every flooded management message — the hottest timer site
        event = self._engine.call_later(delay, self._timeout, invoke_id,
                                        label="riep.invoke")
        self._pending[invoke_id] = (handler, event)
        return message

    def dispatch_response(self, message: RiepMessage) -> bool:
        """Route a ``*_R`` message to its waiting handler; False if stale."""
        entry = self._pending.pop(message.invoke_id, None)
        if entry is None:
            return False
        handler, event = entry
        event.cancel()
        handler(message)
        return True

    def pending_count(self) -> int:
        """Number of requests still awaiting a response."""
        return len(self._pending)

    def _timeout(self, invoke_id: int) -> None:
        entry = self._pending.pop(invoke_id, None)
        if entry is None:
            return
        handler, _timer = entry
        handler(None)
