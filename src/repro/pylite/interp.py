"""The Pylite interpreter: a Python subset over simulated memory.

Programs are real Python syntax (parsed with :mod:`ast`), but every
value is an object in the simulated address space with a CPython-style
header, allocated from its module's own allocator.  Reference-count
updates go through :meth:`PyMachine.meta_write`, which performs the
§5.2 controlled trusted switch when the object's page is read-only in
the current environment.

Enclosures are exposed to Pylite code as the ``enclosure(policy, fn)``
builtin, mirroring the paper's dynamic-language frontend; ``localcopy``
(§5.2) deep-copies an object into the caller's module.
"""

from __future__ import annotations

import ast
import struct
from dataclasses import dataclass, field

from repro.core.enclosure import EnclosureSpec
from repro.errors import PyliteError
from repro.hw.clock import COSTS
from repro.os.fs import O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY
from repro.os.syscalls import SYS_CLOSE, SYS_OPEN, SYS_READ, SYS_WRITE
from repro.pylite import objects as obj
from repro.pylite.machine import PyMachine, PyModule

_GC_INTERVAL = 600


@dataclass
class PyFunc:
    name: str
    node: ast.FunctionDef
    module: str
    code_addr: int


@dataclass
class EnclosureFn:
    """A Pylite closure bound to an enclosure policy."""

    spec: EnclosureSpec
    func: PyFunc


@dataclass
class Frame:
    module: str
    locals: dict[str, object] = field(default_factory=dict)


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Range:
    def __init__(self, stop: int):
        self.stop = stop


class Interpreter:
    """Executes Pylite modules on a :class:`PyMachine`."""

    def __init__(self, machine: PyMachine):
        self.machine = machine
        self.sources: dict[str, str] = {}
        self.stdout: list[str] = []
        self._allocs_since_gc = 0
        self.none = self._raw_new("builtins", obj.TYPE_NONE, b"")
        self.true = self._raw_new("builtins", obj.TYPE_BOOL,
                                  struct.pack("<q", 1))
        self.false = self._raw_new("builtins", obj.TYPE_BOOL,
                                   struct.pack("<q", 0))

    # ------------------------------------------------------------ sources

    def add_source(self, name: str, source: str) -> None:
        self.sources[name] = source

    def import_module(self, name: str,
                      importer: str | None = None) -> PyModule:
        """Lazy import: register with LitterBox, parse, run top level.

        A module counts as imported once its import starts, so a later
        import neither runs it nor charges ``PY_IMPORT`` again, and an
        import cycle gets the partly run module, as in CPython."""
        module = self.machine.modules.get(name)
        if module is not None and module.imported:
            return self.machine.register_module(name, importer)
        if name not in self.sources:
            raise PyliteError(f"no module named {name!r}")
        self.machine.clock.charge(COSTS.PY_IMPORT)
        module = self.machine.register_module(name, importer)
        module.imported = True
        try:
            tree = ast.parse(self.sources[name])
        except SyntaxError as err:
            raise PyliteError(
                f"module {name!r}, line {err.lineno}: {err.msg}") from None
        frame = Frame(module=name, locals=module.namespace)
        for stmt in tree.body:
            self.exec_stmt(stmt, frame)
        return module

    def run_main(self, source: str) -> None:
        self.add_source("__main__", source)
        try:
            self.import_module("__main__")
        except RecursionError:
            raise PyliteError("maximum recursion depth exceeded") from None

    # ----------------------------------------------------- object plumbing

    def _raw_new(self, module: str, type_id: int, payload: bytes) -> int:
        machine = self.machine
        addr = machine.alloc(module, obj.HEADER_SIZE + max(8, len(payload)))
        mod = machine.modules[module]
        header = struct.pack("<qqq", 1, type_id, mod.gc_head)
        machine.mmu.write(machine.trusted_ctx, addr, header + payload,
                          charge=False)
        mod.gc_head = addr
        self._allocs_since_gc += 1
        if self._allocs_since_gc >= _GC_INTERVAL:
            self._gc_collect()
        return addr

    def new_object(self, module: str, type_id: int, payload: bytes) -> int:
        """Allocate in the current environment (header written through
        the gc enqueue path, which may need a trusted switch)."""
        machine = self.machine
        addr = machine.alloc(module, obj.HEADER_SIZE + max(8, len(payload)))
        mod = machine.modules[module]
        machine.meta_write(addr + obj.OFF_REFCOUNT, 1)
        machine.meta_write(addr + obj.OFF_TYPE, type_id)
        # Enqueue on the module's generation-0 GC list (§5.2).
        machine.meta_write(addr + obj.OFF_GC_NEXT, mod.gc_head)
        mod.gc_head = addr
        if payload:
            machine.data_write(addr + obj.OFF_PAYLOAD, payload)
        self._allocs_since_gc += 1
        if self._allocs_since_gc >= _GC_INTERVAL:
            self._gc_collect()
        return addr

    def _gc_collect(self) -> None:
        """Young-generation pass: walk each module's gen-0 list, clear
        the linkage (promotion).  Touching the embedded ``gc_next`` of
        read-only objects costs trusted switches (§5.2/§6.4)."""
        self._allocs_since_gc = 0
        machine = self.machine
        for module in machine.modules.values():
            addr = module.gc_head
            while addr:
                next_addr = struct.unpack("<q", machine.mmu.read(
                    machine.trusted_ctx, addr + obj.OFF_GC_NEXT, 8,
                    charge=False))[0]
                machine.meta_write(addr + obj.OFF_GC_NEXT, 0)
                addr = next_addr
            module.gc_head = 0

    def incref(self, addr: int) -> None:
        count = self._read_word(self.address(addr) + obj.OFF_REFCOUNT)
        self.machine.meta_write(addr + obj.OFF_REFCOUNT, count + 1)

    def decref(self, addr: int) -> None:
        count = self._read_word(self.address(addr) + obj.OFF_REFCOUNT)
        self.machine.meta_write(addr + obj.OFF_REFCOUNT, count - 1)

    def touch(self, value) -> None:
        """The incref/decref pair a CPython LOAD/use cycle performs."""
        if isinstance(value, int):
            self.incref(value)
            self.decref(value)

    def _read_word(self, addr: int) -> int:
        return struct.unpack("<q", self.machine.data_read(addr, 8))[0]

    @staticmethod
    def address(value) -> int:
        """``value`` as the heap address of the object an object slot
        holds.  Functions, enclosures, modules, ranges and bound
        methods live outside the heap and fit no slot."""
        if isinstance(value, int):
            return value
        if isinstance(value, PyFunc):
            what = f"function {value.name!r}"
        elif isinstance(value, EnclosureFn):
            what = f"enclosure of {value.func.name!r}"
        elif isinstance(value, _Range):
            what = "range"
        elif value[0] == "module":
            what = f"module {value[1]!r}"
        else:
            what = f"bound method {value[2]!r}"
        raise PyliteError(f"{what} is not a heap object")

    def type_of(self, addr: int) -> int:
        return self._read_word(self.address(addr) + obj.OFF_TYPE)

    # Constructors (allocate in the given module's arena).

    def new_int(self, module: str, value: int) -> int:
        return self.new_object(module, obj.TYPE_INT,
                               struct.pack("<q", value))

    def new_str(self, module: str, text: str) -> int:
        data = text.encode()
        return self.new_object(module, obj.TYPE_STR,
                               struct.pack("<q", len(data)) + data)

    def new_list(self, module: str, items: list[int]) -> int:
        cap = max(4, len(items))
        items_addr = self.machine.alloc(module, 8 * cap)
        if items:
            self.machine.data_write(items_addr, b"".join(
                struct.pack("<q", self.address(a)) for a in items))
        payload = struct.pack("<qqq", len(items), cap, items_addr)
        addr = self.new_object(module, obj.TYPE_LIST, payload)
        for item in items:
            self.incref(item)
        return addr

    # Readers (all through the current environment's translation).

    def int_value(self, addr: int) -> int:
        if self.type_of(addr) not in (obj.TYPE_INT, obj.TYPE_BOOL):
            raise PyliteError(f"expected int, got "
                              f"{obj.type_name(self.type_of(addr))}")
        return self._read_word(addr + obj.OFF_PAYLOAD)

    def str_value(self, addr: int) -> str:
        if self.type_of(addr) != obj.TYPE_STR:
            raise PyliteError("expected str")
        length = self._read_word(addr + obj.OFF_PAYLOAD)
        return self.machine.data_read(
            addr + obj.OFF_PAYLOAD + 8, length).decode()

    def list_items(self, addr: int) -> list[int]:
        if self.type_of(addr) != obj.TYPE_LIST:
            raise PyliteError("expected list")
        length, _, items_addr = struct.unpack(
            "<qqq", self.machine.data_read(addr + obj.OFF_PAYLOAD, 24))
        raw = self.machine.data_read(items_addr, 8 * length) if length \
            else b""
        return list(struct.unpack(f"<{length}q", raw)) if length else []

    def list_append(self, addr: int, item: int) -> None:
        machine = self.machine
        length, cap, items_addr = struct.unpack(
            "<qqq", machine.data_read(addr + obj.OFF_PAYLOAD, 24))
        if length == cap:
            owner = self._module_of(addr)
            new_cap = cap * 2
            new_items = machine.alloc(owner, 8 * new_cap)
            machine.data_write(new_items,
                               machine.data_read(items_addr, 8 * length))
            items_addr, cap = new_items, new_cap
        machine.data_write(items_addr + 8 * length,
                           struct.pack("<q", self.address(item)))
        machine.data_write(addr + obj.OFF_PAYLOAD,
                           struct.pack("<qqq", length + 1, cap, items_addr))
        self.incref(item)

    def _module_of(self, addr: int) -> str:
        for module in self.machine.modules.values():
            for section in module.data_sections:
                if section.contains(addr):
                    return module.name
        raise PyliteError(f"address {addr:#x} outside every module arena")

    def to_python(self, value) -> object:
        """Convert a Pylite value to host Python (for assertions)."""
        if not isinstance(value, int):
            return value
        type_id = self.type_of(value)
        if type_id == obj.TYPE_NONE:
            return None
        if type_id == obj.TYPE_BOOL:
            return bool(self._read_word(value + obj.OFF_PAYLOAD))
        if type_id == obj.TYPE_INT:
            return self.int_value(value)
        if type_id == obj.TYPE_STR:
            return self.str_value(value)
        if type_id == obj.TYPE_LIST:
            return [self.to_python(i) for i in self.list_items(value)]
        raise PyliteError(f"unconvertible type {type_id}")

    # ------------------------------------------------------------ execution

    def exec_stmt(self, node: ast.stmt, frame: Frame) -> None:
        self.machine.clock.charge(COSTS.PY_BYTECODE)
        if isinstance(node, ast.Import):
            for alias in node.names:
                self.import_module(alias.name, importer=frame.module)
                frame.locals[alias.asname or alias.name] = \
                    ("module", alias.name)
        elif isinstance(node, ast.FunctionDef):
            module = self.machine.modules[frame.module]
            code_addr = module.code_sections[0].base + \
                32 * len([v for v in frame.locals.values()
                          if isinstance(v, PyFunc)])
            frame.locals[node.name] = PyFunc(node.name, node, frame.module,
                                             code_addr)
        elif isinstance(node, ast.Assign):
            value = self.eval_expr(node.value, frame)
            if len(node.targets) != 1:
                raise PyliteError("multiple assignment targets unsupported")
            self._assign(node.targets[0], value, frame)
        elif isinstance(node, ast.AugAssign):
            current = self.eval_expr(ast.Name(id=node.target.id,
                                              ctx=ast.Load()), frame) \
                if isinstance(node.target, ast.Name) else None
            if current is None:
                raise PyliteError("augmented assignment needs a name")
            value = self._binop(node.op, current,
                                self.eval_expr(node.value, frame), frame)
            self._assign(node.target, value, frame)
        elif isinstance(node, ast.Expr):
            self.eval_expr(node.value, frame)
        elif isinstance(node, ast.Return):
            value = self.eval_expr(node.value, frame) \
                if node.value is not None else self.none
            raise _Return(value)
        elif isinstance(node, ast.If):
            branch = node.body if self._truth(
                self.eval_expr(node.test, frame)) else node.orelse
            for stmt in branch:
                self.exec_stmt(stmt, frame)
        elif isinstance(node, ast.While):
            while self._truth(self.eval_expr(node.test, frame)):
                for stmt in node.body:
                    self.exec_stmt(stmt, frame)
        elif isinstance(node, ast.For):
            iterable = self.eval_expr(node.iter, frame)
            if isinstance(iterable, _Range):
                for i in range(iterable.stop):
                    self._assign(node.target,
                                 self.new_int(frame.module, i), frame)
                    for stmt in node.body:
                        self.exec_stmt(stmt, frame)
            else:
                for item in self.list_items(iterable):
                    self.touch(iterable)
                    self._assign(node.target, item, frame)
                    self.incref(item)
                    for stmt in node.body:
                        self.exec_stmt(stmt, frame)
        elif isinstance(node, ast.Pass):
            pass
        else:
            raise PyliteError(
                f"unsupported statement {type(node).__name__}")

    def _assign(self, target: ast.expr, value, frame: Frame) -> None:
        if isinstance(target, ast.Name):
            old = frame.locals.get(target.id)
            if isinstance(value, int):
                self.incref(value)
            if isinstance(old, int):
                self.decref(old)
            frame.locals[target.id] = value
        elif isinstance(target, ast.Subscript):
            base = self.eval_expr(target.value, frame)
            index = self.int_value(self.eval_expr(target.slice, frame))
            items = self.list_items(base)
            if not 0 <= index < len(items):
                raise PyliteError("list index out of range")
            _, _, items_addr = struct.unpack(
                "<qqq", self.machine.data_read(base + obj.OFF_PAYLOAD, 24))
            self.incref(value)
            self.decref(items[index])
            self.machine.data_write(items_addr + 8 * index,
                                    struct.pack("<q", value))
        else:
            raise PyliteError("unsupported assignment target")

    def _truth(self, value) -> bool:
        if isinstance(value, int):
            type_id = self.type_of(value)
            if type_id in (obj.TYPE_INT, obj.TYPE_BOOL):
                return self._read_word(value + obj.OFF_PAYLOAD) != 0
            if type_id == obj.TYPE_NONE:
                return False
            if type_id == obj.TYPE_STR:
                return self._read_word(value + obj.OFF_PAYLOAD) != 0
            if type_id == obj.TYPE_LIST:
                return self._read_word(value + obj.OFF_PAYLOAD) != 0
        raise PyliteError("bad condition value")

    # ------------------------------------------------------------ expressions

    def eval_expr(self, node: ast.expr, frame: Frame):
        self.machine.clock.charge(COSTS.PY_BYTECODE)
        if isinstance(node, ast.Constant):
            if node.value is None:
                return self.none
            if isinstance(node.value, bool):
                return self.true if node.value else self.false
            if isinstance(node.value, int):
                return self.new_int(frame.module, node.value)
            if isinstance(node.value, str):
                return self.new_str(frame.module, node.value)
            raise PyliteError(f"unsupported constant {node.value!r}")
        if isinstance(node, ast.Name):
            if node.id in frame.locals:
                value = frame.locals[node.id]
                self.touch(value)
                return value
            module_ns = self.machine.modules[frame.module].namespace
            if node.id in module_ns:
                value = module_ns[node.id]
                self.touch(value)
                return value
            raise PyliteError(f"name {node.id!r} is not defined")
        if isinstance(node, ast.List):
            items = [self.eval_expr(e, frame) for e in node.elts]
            return self.new_list(frame.module, items)
        if isinstance(node, ast.BinOp):
            left = self.eval_expr(node.left, frame)
            right = self.eval_expr(node.right, frame)
            return self._binop(node.op, left, right, frame)
        if isinstance(node, ast.UnaryOp):
            operand = self.eval_expr(node.operand, frame)
            if isinstance(node.op, ast.USub):
                return self.new_int(frame.module, -self.int_value(operand))
            if isinstance(node.op, ast.Not):
                return self.false if self._truth(operand) else self.true
            raise PyliteError("unsupported unary operator")
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise PyliteError("chained comparisons unsupported")
            left = self.eval_expr(node.left, frame)
            right = self.eval_expr(node.comparators[0], frame)
            return self._compare(node.ops[0], left, right)
        if isinstance(node, ast.Subscript):
            base = self.eval_expr(node.value, frame)
            index = self.int_value(self.eval_expr(node.slice, frame))
            type_id = self.type_of(base)
            if type_id == obj.TYPE_LIST:
                items = self.list_items(base)
                if not 0 <= index < len(items):
                    raise PyliteError("list index out of range")
                return items[index]
            if type_id == obj.TYPE_STR:
                text = self.str_value(base)
                return self.new_str(frame.module, text[index])
            raise PyliteError("unsupported subscript")
        if isinstance(node, ast.Attribute):
            base = self.eval_expr(node.value, frame)
            if isinstance(base, tuple) and base[0] == "module":
                namespace = self.machine.modules[base[1]].namespace
                if node.attr not in namespace:
                    raise PyliteError(
                        f"module {base[1]!r} has no attribute {node.attr!r}")
                value = namespace[node.attr]
                self.touch(value)
                return value
            return ("method", base, node.attr)
        if isinstance(node, ast.Call):
            return self._call(node, frame)
        raise PyliteError(f"unsupported expression {type(node).__name__}")

    def _binop(self, op, left, right, frame: Frame):
        # Operand refcounts were already handled at load time (the
        # CPython stack push/pop), so the operator itself adds none.
        module = frame.module
        if self.type_of(left) == obj.TYPE_STR:
            if isinstance(op, ast.Add):
                return self.new_str(module, self.str_value(left)
                                    + self.str_value(right))
            if isinstance(op, ast.Mult):
                return self.new_str(module, self.str_value(left)
                                    * self.int_value(right))
            raise PyliteError("unsupported str operator")
        a, b = self.int_value(left), self.int_value(right)
        if isinstance(op, ast.Add):
            return self.new_int(module, a + b)
        if isinstance(op, ast.Sub):
            return self.new_int(module, a - b)
        if isinstance(op, ast.Mult):
            return self.new_int(module, a * b)
        if isinstance(op, ast.FloorDiv):
            if b == 0:
                raise PyliteError("division by zero")
            return self.new_int(module, a // b)
        if isinstance(op, ast.Mod):
            if b == 0:
                raise PyliteError("modulo by zero")
            return self.new_int(module, a % b)
        raise PyliteError(f"unsupported operator {type(op).__name__}")

    def _compare(self, op, left, right):
        if self.type_of(left) == obj.TYPE_STR:
            a, b = self.str_value(left), self.str_value(right)
        else:
            a, b = self.int_value(left), self.int_value(right)
        table = {ast.Eq: a == b, ast.NotEq: a != b, ast.Lt: a < b,
                 ast.LtE: a <= b, ast.Gt: a > b, ast.GtE: a >= b}
        for kind, result in table.items():
            if isinstance(op, kind):
                return self.true if result else self.false
        raise PyliteError("unsupported comparison")

    # ------------------------------------------------------------------ calls

    def _call(self, node: ast.Call, frame: Frame):
        # Builtins dispatched by name.
        if isinstance(node.func, ast.Name):
            name = node.func.id
            if name == "enclosure":
                return self._make_enclosure(node, frame)
            if name in _BUILTINS:
                args = [self.eval_expr(a, frame) for a in node.args]
                return _BUILTINS[name](self, frame, args)
        callee = self.eval_expr(node.func, frame) \
            if not isinstance(node.func, ast.Name) else \
            frame.locals.get(node.func.id) or \
            self.machine.modules[frame.module].namespace.get(node.func.id)
        args = [self.eval_expr(a, frame) for a in node.args]
        if isinstance(callee, tuple) and callee[0] == "method":
            return self._method(callee[1], callee[2], args, frame)
        if isinstance(callee, PyFunc):
            return self.call_function(callee, args)
        if isinstance(callee, EnclosureFn):
            return self.call_enclosure(callee, args)
        raise PyliteError(f"not callable: {ast.dump(node.func)}")

    def _method(self, base, name: str, args, frame: Frame):
        if self.type_of(base) == obj.TYPE_LIST and name == "append":
            self.list_append(base, args[0])
            return self.none
        raise PyliteError(f"unsupported method {name!r}")

    def call_function(self, func: PyFunc, args: list) -> object:
        node = func.node
        params = [p.arg for p in node.args.args]
        if len(params) != len(args):
            raise PyliteError(
                f"{func.name}() takes {len(params)} args, got {len(args)}")
        frame = Frame(module=func.module)
        for param, value in zip(params, args):
            if isinstance(value, int):
                self.incref(value)
            frame.locals[param] = value
        try:
            for stmt in node.body:
                self.exec_stmt(stmt, frame)
        except _Return as ret:
            return ret.value
        return self.none

    # ------------------------------------------------------------ enclosures

    def _make_enclosure(self, node: ast.Call, frame: Frame) -> EnclosureFn:
        if len(node.args) != 2 or not isinstance(node.args[0], ast.Constant):
            raise PyliteError("enclosure(policy_literal, function)")
        policy = node.args[0].value
        func = self.eval_expr(node.args[1], frame)
        if not isinstance(func, PyFunc):
            raise PyliteError("enclosure() needs a function")
        return EnclosureFn(
            self.machine.create_enclosure(func.module, policy), func)

    def call_enclosure(self, encl: EnclosureFn, args: list) -> object:
        machine = self.machine
        machine.enter(encl.spec)
        try:
            return self.call_function(encl.func, args)
        finally:
            machine.leave()


# ---------------------------------------------------------------- builtins

def _bi_len(interp: Interpreter, frame: Frame, args):
    value = args[0]
    interp.touch(value)
    type_id = interp.type_of(value)
    if type_id == obj.TYPE_LIST or type_id == obj.TYPE_STR:
        return interp.new_int(frame.module,
                              interp._read_word(value + obj.OFF_PAYLOAD))
    raise PyliteError("len() of unsupported type")


def _bi_range(interp, frame, args):
    return _Range(interp.int_value(args[0]))


def _bi_str(interp, frame, args):
    return interp.new_str(frame.module,
                          str(interp.to_python(interp.address(args[0]))))


def _bi_print(interp: Interpreter, frame: Frame, args):
    text = " ".join(str(interp.to_python(interp.address(a)))
                    for a in args) + "\n"
    addr = interp.new_str(frame.module, text)
    interp.machine.do_syscall(
        SYS_WRITE, (1, addr + obj.OFF_PAYLOAD + 8, len(text.encode())))
    return interp.none


def _bi_localcopy(interp: Interpreter, frame: Frame, args):
    """Deep copy into the *caller's* module arena (§5.2)."""
    value = interp.to_python(args[0])
    return _materialize(interp, frame.module, value)


def _materialize(interp: Interpreter, module: str, value):
    if value is None:
        return interp.none
    if isinstance(value, bool):
        return interp.true if value else interp.false
    if isinstance(value, int):
        return interp.new_int(module, value)
    if isinstance(value, str):
        return interp.new_str(module, value)
    if isinstance(value, list):
        return interp.new_list(
            module, [_materialize(interp, module, v) for v in value])
    raise PyliteError("localcopy of unsupported value")


def _bi_write_file(interp: Interpreter, frame: Frame, args):
    path, data = map(interp.address, args)
    machine = interp.machine
    path_len = interp._read_word(path + obj.OFF_PAYLOAD)
    fd = machine.do_syscall(SYS_OPEN, (path + obj.OFF_PAYLOAD + 8, path_len,
                                       O_WRONLY | O_CREAT | O_TRUNC))
    if fd < 0:
        raise PyliteError(f"open failed ({fd})")
    data_len = interp._read_word(data + obj.OFF_PAYLOAD)
    machine.do_syscall(SYS_WRITE, (fd, data + obj.OFF_PAYLOAD + 8, data_len))
    machine.do_syscall(SYS_CLOSE, (fd,))
    return interp.none


def _bi_read_file(interp: Interpreter, frame: Frame, args):
    """Read a whole file into a str (open/read/close, all filtered)."""
    path = interp.address(args[0])
    machine = interp.machine
    path_len = interp._read_word(path + obj.OFF_PAYLOAD)
    fd = machine.do_syscall(SYS_OPEN, (path + obj.OFF_PAYLOAD + 8, path_len,
                                       O_RDONLY))
    if fd < 0:
        raise PyliteError(f"open failed ({fd})")
    buffer = machine.alloc(frame.module, 4096)
    chunks = bytearray()
    while True:
        n = machine.do_syscall(SYS_READ, (fd, buffer, 4096))
        if n <= 0:
            break
        chunks += machine.data_read(buffer, n)
    machine.do_syscall(SYS_CLOSE, (fd,))
    return interp.new_str(frame.module, chunks.decode("utf-8", "replace"))


def _bi_connect_send(interp: Interpreter, frame: Frame, args):
    """connect_send(ip, port, data): open a socket, ship data (§6.5
    exfiltration primitive — socket/connect/sendto, all filtered)."""
    from repro.os.syscalls import SYS_CONNECT, SYS_SENDTO, SYS_SOCKET
    ip, port, data = args
    data = interp.address(data)
    machine = interp.machine
    sock = machine.do_syscall(SYS_SOCKET, (2, 1, 0))
    r = machine.do_syscall(
        SYS_CONNECT, (sock, interp.int_value(ip), interp.int_value(port)))
    if r < 0:
        return interp.new_int(frame.module, r)
    length = interp._read_word(data + obj.OFF_PAYLOAD)
    n = machine.do_syscall(
        SYS_SENDTO, (sock, data + obj.OFF_PAYLOAD + 8, length))
    machine.do_syscall(SYS_CLOSE, (sock,))
    return interp.new_int(frame.module, n)


_BUILTINS = {
    "len": _bi_len,
    "range": _bi_range,
    "str": _bi_str,
    "print": _bi_print,
    "localcopy": _bi_localcopy,
    "write_file": _bi_write_file,
    "read_file": _bi_read_file,
    "connect_send": _bi_connect_send,
}
