"""Statement parser for the mini-RISC assembly language.

Each source line parses to zero or more :class:`Statement` values:
label definitions, directives, or instruction statements.  Operands are kept
as small expression trees; the assembler resolves symbols against the final
symbol table in its second pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AssemblerError
from .lexer import Token, TokenKind, tokenize_line

# --------------------------------------------------------------------- exprs


@dataclass(frozen=True)
class NumExpr:
    value: int


@dataclass(frozen=True)
class SymExpr:
    name: str


@dataclass(frozen=True)
class BinExpr:
    op: str  # '+' or '-'
    left: "Expr"
    right: "Expr"


Expr = NumExpr | SymExpr | BinExpr


def eval_expr(expr: Expr, symbols: dict[str, int], line: int | None = None) -> int:
    """Evaluate an operand expression against a symbol table."""
    if isinstance(expr, NumExpr):
        return expr.value
    if isinstance(expr, SymExpr):
        if expr.name not in symbols:
            raise AssemblerError(f"undefined symbol {expr.name!r}", line)
        return symbols[expr.name]
    left = eval_expr(expr.left, symbols, line)
    right = eval_expr(expr.right, symbols, line)
    return left + right if expr.op == "+" else left - right


# ------------------------------------------------------------------ operands


@dataclass(frozen=True)
class ExprOperand:
    """A bare expression operand: register name, symbol, or number."""

    expr: Expr


@dataclass(frozen=True)
class MemOperand:
    """``offset(base)`` memory operand."""

    offset: Expr
    base: str


@dataclass(frozen=True)
class StringOperand:
    text: str


Operand = ExprOperand | MemOperand | StringOperand


# ---------------------------------------------------------------- statements


@dataclass(frozen=True)
class LabelDef:
    name: str
    line: int


@dataclass(frozen=True)
class DirectiveStmt:
    name: str  # includes the leading '.'
    operands: tuple[Operand, ...]
    line: int


@dataclass(frozen=True)
class InstructionStmt:
    mnemonic: str
    operands: tuple[Operand, ...]
    line: int


Statement = LabelDef | DirectiveStmt | InstructionStmt


# -------------------------------------------------------------------- parser


class _TokenStream:
    def __init__(self, tokens: list[Token], line: int):
        self._tokens = tokens
        self._pos = 0
        self.line = line

    def peek(self) -> Token | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise AssemblerError("unexpected end of line", self.line)
        self._pos += 1
        return tok

    def expect(self, kind: TokenKind) -> Token:
        tok = self.next()
        if tok.kind is not kind:
            raise AssemblerError(
                f"expected {kind.value}, found {tok.text!r}", self.line
            )
        return tok

    def at_end(self) -> bool:
        return self._pos >= len(self._tokens)


def _parse_atom(stream: _TokenStream) -> Expr:
    tok = stream.next()
    if tok.kind is TokenKind.NUMBER:
        return NumExpr(tok.value)
    if tok.kind is TokenKind.IDENT:
        return SymExpr(tok.text)
    if tok.kind is TokenKind.MINUS:
        inner = _parse_atom(stream)
        return BinExpr("-", NumExpr(0), inner)
    if tok.kind is TokenKind.PLUS:
        return _parse_atom(stream)
    raise AssemblerError(f"expected expression, found {tok.text!r}", stream.line)


def _parse_expr(stream: _TokenStream) -> Expr:
    expr = _parse_atom(stream)
    while True:
        tok = stream.peek()
        if tok is None or tok.kind not in (TokenKind.PLUS, TokenKind.MINUS):
            return expr
        stream.next()
        right = _parse_atom(stream)
        expr = BinExpr(tok.text, expr, right)


def _parse_operand(stream: _TokenStream) -> Operand:
    tok = stream.peek()
    if tok is not None and tok.kind is TokenKind.STRING:
        stream.next()
        return StringOperand(tok.text)
    # `(reg)` with implicit zero offset
    if tok is not None and tok.kind is TokenKind.LPAREN:
        stream.next()
        base = stream.expect(TokenKind.IDENT).text
        stream.expect(TokenKind.RPAREN)
        return MemOperand(NumExpr(0), base)
    expr = _parse_expr(stream)
    tok = stream.peek()
    if tok is not None and tok.kind is TokenKind.LPAREN:
        stream.next()
        base = stream.expect(TokenKind.IDENT).text
        stream.expect(TokenKind.RPAREN)
        return MemOperand(expr, base)
    return ExprOperand(expr)


def parse_line(source: str, line: int) -> list[Statement]:
    """Parse one physical line into statements.

    A line may contain ``label:`` prefixes followed by at most one directive
    or instruction.
    """
    tokens = tokenize_line(source, line)
    if not tokens:
        return []
    stream = _TokenStream(tokens, line)
    statements: list[Statement] = []

    # Leading labels: IDENT ':'
    while True:
        tok = stream.peek()
        if tok is None:
            return statements
        if tok.kind is TokenKind.IDENT:
            # lookahead for ':'
            save = stream._pos
            stream.next()
            nxt = stream.peek()
            if nxt is not None and nxt.kind is TokenKind.COLON:
                stream.next()
                statements.append(LabelDef(tok.text, line))
                continue
            stream._pos = save
        break

    tok = stream.peek()
    if tok is None:
        return statements

    if tok.kind is TokenKind.DIRECTIVE:
        stream.next()
        operands = _parse_operand_list(stream)
        statements.append(DirectiveStmt(tok.text, tuple(operands), line))
    elif tok.kind is TokenKind.IDENT:
        stream.next()
        operands = _parse_operand_list(stream)
        statements.append(InstructionStmt(tok.text.lower(), tuple(operands), line))
    else:
        raise AssemblerError(f"unexpected token {tok.text!r}", line)

    if not stream.at_end():
        raise AssemblerError(
            f"trailing tokens after statement: {stream.peek().text!r}", line
        )
    return statements


def _parse_operand_list(stream: _TokenStream) -> list[Operand]:
    operands: list[Operand] = []
    if stream.at_end():
        return operands
    operands.append(_parse_operand(stream))
    while not stream.at_end():
        stream.expect(TokenKind.COMMA)
        operands.append(_parse_operand(stream))
    return operands


def parse_source(source: str) -> list[Statement]:
    """Parse a whole assembly source file into a statement list."""
    statements: list[Statement] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        statements.extend(parse_line(text, lineno))
    return statements
